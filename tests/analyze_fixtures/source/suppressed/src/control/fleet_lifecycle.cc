// Fixture: the same mutations, allowed in analyze.toml for a migration
// shim.
void MarkJobDone(FleetManifest* manifest, ManifestJobEntry* entry) {
  manifest->AppendState(entry->job_id, FleetJobState::kDone, 0, 0, "");
  entry->state = FleetJobState::kDone;
}
