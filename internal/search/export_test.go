package search

// EagerGreedyOracle exposes the eager marginal-scan oracle
// (eager_oracle_test.go) to the external test package.
var EagerGreedyOracle = eagerGreedy

// StandaloneEvals exposes the standalone evaluations strategies derive
// from the space's benefit model.
var StandaloneEvals = standalone
