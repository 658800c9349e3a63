#ifndef HTUNE_PLATFORM_INSPECT_H_
#define HTUNE_PLATFORM_INSPECT_H_

#include <string>
#include <string_view>

namespace htune {

/// The journal inspector behind `htune_cli inspect`: runs `verb` over the
/// file at `path`, appending the report to `out`, and returns 0 ok, 1 a
/// problem (or an unreadable file), 2 an unknown verb. It reads files only
/// through the codecs recovery uses, so it cannot disagree with recovery.
///   dump      every valid record, decoded, and the torn tail if any;
///   verify    a complete run, no torn tail, every record decodes, and the
///             payments balance against run-end (controller journal) or
///             the session report names the run-start's job (serve job);
///   ledger    a controller journal's payments; 1 on a duplicate, a slot
///             gap, or a total other than run-end's;
///   manifest  what ScanManifest folds; 1 on a dropped tail or a state
///             record for an unknown job.
/// The file named like kSharedServiceJournalPath is the service journal;
/// another journal is a controller or serve job journal when its kRunStart
/// decodes exactly as RunStartRecord or JobRunStartRecord, else undecodable.
int InspectFile(std::string_view verb, const std::string& path,
                std::string* out);

}  // namespace htune

#endif  // HTUNE_PLATFORM_INSPECT_H_
