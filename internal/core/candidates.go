// Package core implements the paper's primary contribution: the XML Index
// Advisor. Given a database and a weighted workload of queries and
// updates, it recommends the set of XML value indexes (patterns + SQL
// types) with the greatest estimated benefit that fits a disk budget.
//
// The pipeline follows Figure 1 of the paper, with each stage behind its
// own package boundary; this package is the thin orchestration layer
// that wires them together and assembles the recommendation (the public
// advisor package presents it):
//
//  1. internal/candidate enumerates the basic candidate patterns for
//     every workload query (§2.1, the Enumerate Indexes EXPLAIN mode via
//     candidate.Source), generalizes them with the §2.2 rule engine, and
//     arranges the result in a containment DAG.
//  2. internal/search picks the recommended configuration under the
//     disk budget (§2.3): pluggable registered strategies — plain
//     greedy, greedy with redundancy heuristics, top-down DAG descent,
//     and a concurrent portfolio race — over a Space this package
//     assembles (candidates, DAG, budget, cost evaluator).
//  3. internal/whatif prices every configuration the search considers
//     via the Evaluate Indexes EXPLAIN mode, accounting for index
//     interaction; update (maintenance) cost is charged by this
//     package's evaluator on top of the engine's per-query costs.
package core

import (
	"repro/internal/candidate"
)

// Candidate is one candidate index in the advisor's search space,
// produced by the internal/candidate pipeline.
type Candidate = candidate.Candidate

// DAG is the candidate generalization DAG (paper §2.2, Figure 4).
type DAG = candidate.DAG

// candidateSource resolves the advisor's candidate source: the explicit
// Options.Source, or the optimizer's Enumerate Indexes mode when nil.
func (a *Advisor) candidateSource() candidate.Source {
	if a.opts.Source != nil {
		return a.opts.Source
	}
	return &candidate.OptimizerSource{Opt: a.opt}
}

// candidateRules resolves the generalization rule set: the paper's
// default rules for an empty Options.Rules, the parsed spec otherwise.
func (a *Advisor) candidateRules() ([]candidate.Rule, error) {
	if a.opts.Rules == "" {
		return candidate.DefaultRules(), nil
	}
	return candidate.ParseRules(a.opts.Rules)
}

// pipeline assembles the candidate pipeline for one Recommend run.
func (a *Advisor) pipeline() (*candidate.Pipeline, error) {
	rules, err := a.candidateRules()
	if err != nil {
		return nil, err
	}
	return candidate.New(a.cat, a.candidateSource(), candidate.Options{
		Rules:          rules,
		MinSharedSteps: candidate.DefaultMinSharedSteps,
		MaxCandidates:  candidate.DefaultMaxCandidates,
	}), nil
}
