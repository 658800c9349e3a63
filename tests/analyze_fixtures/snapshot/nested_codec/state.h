// Fixture: a codec pair over a nested type. EncodeEntry and DecodeEntry
// serialize Ledger::Entry, not Ledger, so Ledger's own fields (whose codec
// lives elsewhere) must not be checked against them.
#pragma once
namespace htune {
struct Ledger {
  struct Entry {
    int amount = 0;
  };
  int total = 0;
  int count = 0;
};

void EncodeEntry(const Ledger::Entry& entry, Encoder& encoder) {
  encoder.Put(entry.amount);
}

void DecodeEntry(Decoder& decoder, Ledger::Entry& entry) {
  decoder.Get(entry.amount);
}
}  // namespace htune
