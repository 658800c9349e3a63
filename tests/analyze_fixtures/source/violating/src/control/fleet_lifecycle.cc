// Fixture: lifecycle mutations outside src/fleet/: a raw manifest append
// and a direct state assignment.
void MarkJobDone(FleetManifest* manifest, ManifestJobEntry* entry) {
  manifest->AppendState(entry->job_id, FleetJobState::kDone, 0, 0, "");
  entry->state = FleetJobState::kDone;
}
