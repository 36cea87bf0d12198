package search

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// untimed is s without wall time, its members' included.
func untimed(s Stats) Stats {
	s.Elapsed = 0
	if s.Members != nil {
		members := make([]Stats, len(s.Members))
		for i, m := range s.Members {
			members[i] = untimed(m)
		}
		s.Members = members
	}
	return s
}

// streamed collects an observer's events per emitting strategy: each
// strategy emits in a fixed order, while race members interleave.
type streamed struct {
	mu     sync.Mutex
	events map[string][]TraceEvent
}

func (s *streamed) observe(e TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Action == ActionMember && e.Note != "" {
		e.Note = "(timed)" // a member's note carries its wall time
	}
	if s.events == nil {
		s.events = map[string][]TraceEvent{}
	}
	s.events[e.Strategy] = append(s.events[e.Strategy], e)
}

// TestNoTraceKeepsStatsAndStream pins what NoTrace changes: only the
// result's Trace, which is nil. The configuration, evaluation and stats
// (Stats.Truncated included) equal a traced run's, and an observer
// receives the same full stream, notes included, as it does beside a
// kept trace. It runs every strategy on the 1k synthetic space and, at
// the trace cap, greedy-basic, lp and topdown on the 10k one (unlimited
// budget; greedy-basic and lp emit past DefaultTraceCap there).
func TestNoTraceKeepsStatsAndStream(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n          int
		strategies []string
	}{
		{1000, Names()},
		{10000, []string{"greedy-basic", "lp", "topdown"}},
	} {
		sp := NewSyntheticSpace(tc.n, 5).WithBudget(0)
		capped := 0
		for _, name := range tc.strategies {
			strat, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var keptStream, offStream streamed
			kept, off, bare := sp.WithBudget(0), sp.WithBudget(0), sp.WithBudget(0)
			kept.Observer = keptStream.observe
			off.NoTrace, off.Observer = true, offStream.observe
			bare.NoTrace = true
			var results [3]*Result
			for i, view := range []*Space{kept, off, bare} {
				if results[i], err = strat.Search(ctx, view); err != nil {
					t.Fatalf("n=%d %s: %v", tc.n, name, err)
				}
			}
			want := results[0]
			for i, res := range results[1:] {
				if res.Trace != nil {
					t.Errorf("n=%d %s: run %d kept %d trace events under NoTrace", tc.n, name, i+1, len(res.Trace))
				}
				if !reflect.DeepEqual(res.Config, want.Config) || *res.Eval != *want.Eval || res.Pages != want.Pages {
					t.Errorf("n=%d %s: run %d chose differently without a trace", tc.n, name, i+1)
				}
				if got, want := untimed(res.Stats), untimed(want.Stats); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s: run %d stats %+v, traced %+v", tc.n, name, i+1, got, want)
				}
			}
			if !reflect.DeepEqual(offStream.events, keptStream.events) {
				t.Errorf("n=%d %s: the observer's stream differs without a kept trace", tc.n, name)
			}
			for _, events := range offStream.events {
				for _, e := range events {
					if (e.Action == ActionSolve || e.Action == ActionRounded || e.Action == ActionStart || e.Action == ActionMember || e.Action == ActionPick) && e.Note == "" {
						t.Errorf("n=%d %s: streamed %s event without its note", tc.n, name, e.Action)
					}
				}
			}
			if name == "race" {
				continue
			}
			stream := keptStream.events[name]
			if dropped := len(stream) - DefaultTraceCap; dropped > 0 {
				capped++
				if want.Stats.Truncated != dropped || len(want.Trace) != DefaultTraceCap+1 || want.Trace[DefaultTraceCap].Action != ActionTruncated {
					t.Errorf("n=%d %s: %d events streamed, trace of %d, %d counted dropped", tc.n, name, len(stream), len(want.Trace), want.Stats.Truncated)
				}
				stream = stream[:DefaultTraceCap]
			}
			if !reflect.DeepEqual([]TraceEvent(want.Trace[:len(stream)]), stream) {
				t.Errorf("n=%d %s: the kept trace is not the stream's head", tc.n, name)
			}
		}
		if tc.n == 10000 && capped < 2 {
			t.Errorf("n=%d: %d strategies reached the trace cap; the test checks too little", tc.n, capped)
		}
	}
}

// verbose is a test strategy that emits more than DefaultTraceCap
// events and then picks every candidate with a positive standalone net.
type verbose struct{ extra int }

func (verbose) Name() string { return "aaa-verbose" }

func (v verbose) Search(ctx context.Context, sp *Space) (*Result, error) {
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	ctx, tr := newTracer(ctx, v.Name(), sp)
	for i := 0; i < DefaultTraceCap+v.extra; i++ {
		tr.emit(TraceEvent{Action: ActionSkip, Note: "verbose"})
	}
	var config []*Candidate
	for _, c := range md.ranked {
		if md.alone[c.ID].Net > 0 {
			config = append(config, c)
		}
	}
	return tr.finish(ctx, config, nil)
}

// TestRaceCountsWinnersDroppedEvents is the regression test for a race
// whose winner's trace was truncated: the race's trace carries the
// winner's, marker included, so its Stats.Truncated must count the
// winner's dropped events (it read 0), and its stats line must say so.
// The count is the same without a kept trace.
func TestRaceCountsWinnersDroppedEvents(t *testing.T) {
	const extra = 100
	Register(verbose{extra: extra})
	defer Unregister(verbose{}.Name())
	ev := flatEval{net: map[int]float64{0: 5, 1: 3, 2: 2}}
	sp := ev.space(t, []*Candidate{testCand(t, 0, "/a/b", 1), testCand(t, 1, "/a/c", 1), testCand(t, 2, "/a/d", 1)}, 0)
	strat, err := Lookup("race")
	if err != nil {
		t.Fatal(err)
	}
	for _, noTrace := range []bool{false, true} {
		view := sp.WithBudget(0)
		view.NoTrace = noTrace
		res, err := strat.Search(context.Background(), view)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Winner != (verbose{}).Name() {
			t.Fatalf("winner %s, want the verbose member", res.Stats.Winner)
		}
		if res.Stats.Truncated != extra {
			t.Errorf("NoTrace=%t: race counts %d dropped events, its winner dropped %d", noTrace, res.Stats.Truncated, extra)
		}
		if !strings.Contains(res.Stats.String(), "trace truncated (100 events dropped)") {
			t.Errorf("NoTrace=%t: stats line %q does not report the truncation", noTrace, res.Stats.String())
		}
		if noTrace {
			if res.Trace != nil {
				t.Errorf("race kept %d trace events under NoTrace", len(res.Trace))
			}
			continue
		}
		if len(res.Trace) <= DefaultTraceCap || res.Trace[DefaultTraceCap].Action != ActionTruncated {
			t.Errorf("race trace of %d events does not carry the winner's truncation marker", len(res.Trace))
		}
	}
}
