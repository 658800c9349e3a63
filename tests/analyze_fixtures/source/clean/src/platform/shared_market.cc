// Fixture: the simulator publishes via control/market_metrics.h instead.
struct TraceSummary {
  long events = 0;
};

TraceSummary Summarize() { return TraceSummary{42}; }
