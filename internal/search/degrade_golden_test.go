package search_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/search"
)

var updateDegradedGolden = flag.Bool("update-degraded", false, "rewrite the degraded-outcome golden file")

// TestDegradedOutcomeGolden pins what every non-race strategy returns
// when the cost backend's circuit breaker opens after k evaluations,
// for every k from 0 up to the strategy's healthy evaluation count, on
// the paper workload: the Degraded flag, the chosen keys in
// configuration order, the exact net and pages, and the trace actions.
// Which configuration and evaluation a strategy falls back to at each
// cut-off point is part of its contract; refactors of the failure paths
// must reproduce this file byte for byte.
func TestDegradedOutcomeGolden(t *testing.T) {
	ctx := context.Background()
	a := testAdvisor(t)
	prep, err := a.Prepare(ctx, propertyWorkloads(t)["paper"])
	if err != nil {
		t.Fatal(err)
	}
	run := func(strat search.Strategy, failAfter int64) *search.Result {
		sp := prep.Space().WithBudget(0)
		sp.Eval = &outageEval{inner: sp.Eval, failAfter: failAfter}
		res, err := strat.Search(ctx, sp)
		if err != nil {
			t.Fatalf("%s cut off after %d evaluations: %v", strat.Name(), failAfter, err)
		}
		return res
	}
	var got bytes.Buffer
	for _, name := range search.Names() {
		if name == "race" {
			continue
		}
		strat, err := search.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		healthy := run(strat, 1<<40).Stats.Evals
		for k := int64(0); k <= healthy; k++ {
			res := run(strat, k)
			fmt.Fprintf(&got, "== %s k=%d degraded=%t net=%s pages=%d\n", name, k, res.Degraded, exact(res.Eval.Net), res.Pages)
			for _, c := range res.Config {
				fmt.Fprintf(&got, "key %s\n", c.Key())
			}
			actions := make([]string, len(res.Trace))
			for i, e := range res.Trace {
				actions[i] = string(e.Action)
			}
			fmt.Fprintf(&got, "trace %s\n", strings.Join(actions, " "))
		}
	}
	path := filepath.Join("testdata", "degraded_outcomes.golden")
	if *updateDegradedGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-degraded to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("degraded outcome differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("degraded outcome differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
