package schedule

// AdaptiveRoundLength derives the executable round length K from measured
// work instead of a hand-picked flag: the smallest K at which the
// serialized Executable round places the whole curvature/inversion refresh
// in its bubbles (§3.1 reports 1-4 steps for its configurations), or
// MaxSteps when no round that long suffices. Assign measures the same
// round and reports this K as its RefreshSteps. The engine calls this at
// EnableKFAC time when Config.RefreshSteps asks for adaptive sizing, so the
// round length tracks the measured refresh-work-to-bubble ratio of the
// actual schedule, model shape, and replica topology.
//
// RefreshSteps, FrontLoadRefresh, Overlap and CarryDepth are ignored: the
// search is over serialized rounds.
func AdaptiveRoundLength(cfg Config) (int, error) {
	cfg, _, _, err := fitRound(cfg)
	if err != nil {
		return 0, err
	}
	return cfg.RefreshSteps, nil
}
