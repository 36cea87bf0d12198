package candidate

import (
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
)

// Raw is one basic-candidate proposal from a Source: a pattern plus the
// SQL type an index must have to serve it. Collection is implied by the
// query the proposal was enumerated for.
type Raw struct {
	Pattern pattern.Pattern
	Type    sqltype.Type
}

// Key identifies the proposal by what it would index.
func (r Raw) Key() string { return r.Pattern.String() + "|" + r.Type.Short() }

// Source enumerates the basic candidate indexes of one query (paper
// §2.1). Implementations must be safe for concurrent use: the Pipeline
// calls Enumerate from many goroutines, one query per call.
type Source interface {
	// Name identifies the source in stats and traces.
	Name() string
	// Enumerate returns the basic candidates of q, deduplicated within
	// the query and in deterministic order.
	Enumerate(q *querylang.Query) ([]Raw, error)
}

// OptimizerSource is the paper's tightly coupled enumeration: the
// optimizer's Enumerate Indexes EXPLAIN mode reports every query pattern
// its index-matching code would serve with a value index, with inferred
// SQL types.
type OptimizerSource struct {
	Opt *optimizer.Optimizer
}

// Name implements Source.
func (s *OptimizerSource) Name() string { return "optimizer" }

// Enumerate implements Source via the Enumerate Indexes EXPLAIN mode.
func (s *OptimizerSource) Enumerate(q *querylang.Query) ([]Raw, error) {
	cands, err := s.Opt.EnumerateIndexes(q)
	if err != nil {
		return nil, err
	}
	out := make([]Raw, len(cands))
	for i, c := range cands {
		out[i] = Raw{Pattern: c.Pattern, Type: c.Type}
	}
	return out, nil
}

// SyntacticSource is the loosely coupled enumeration baseline for the
// coupling ablation: every path in the query text becomes a candidate,
// including extraction paths the optimizer would never serve with a
// value index, and with no SQL type inference (everything VARCHAR).
type SyntacticSource struct{}

// Name implements Source.
func (SyntacticSource) Name() string { return "syntactic" }

// Enumerate implements Source by scraping every leg of the parsed query.
func (SyntacticSource) Enumerate(q *querylang.Query) ([]Raw, error) {
	var out []Raw
	for _, leg := range q.Legs() {
		out = append(out, Raw{Pattern: leg.Pattern, Type: sqltype.Varchar})
	}
	return DedupeRaw(out), nil
}

// DedupeRaw removes duplicate proposals by Key in a single pass over a
// map, preserving the order of first occurrence.
func DedupeRaw(raws []Raw) []Raw {
	seen := make(map[string]bool, len(raws))
	out := raws[:0:0]
	for _, r := range raws {
		key := r.Key()
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}
