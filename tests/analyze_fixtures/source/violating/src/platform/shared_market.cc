// Fixture: an obs macro in a market engine.
void OnEvent() {
  HTUNE_OBS_COUNTER_ADD("market.events_dispatched", 1);
}
