// Fixture: a path outside the replayed region, allowed in analyze.toml.
void OnShutdown() {
  HTUNE_OBS_COUNTER_ADD("market.shutdowns", 1);
}
