package search_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/search"
	"repro/internal/whatif"
)

var updateLPGolden = flag.Bool("update", false, "rewrite the lp golden file")

// exact renders a float with the shortest representation that parses
// back to the same bits, so the golden file pins values exactly.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// lpGoldenDump renders everything one lp search decides on a synthetic
// what-if space: the chosen keys in configuration order, the exact net
// and pages, every LPStats field, and the trace.
func lpGoldenDump(res *search.Result) string {
	var b bytes.Buffer
	for _, c := range res.Config {
		fmt.Fprintf(&b, "key %s\n", c.Key())
	}
	net := 0.0
	if res.Eval != nil {
		net = res.Eval.Net
	}
	fmt.Fprintf(&b, "net %s pages %d\n", exact(net), res.Pages)
	s := res.Stats.LP
	fmt.Fprintf(&b, "lp objective=%s bound=%s passes=%d converged=%t items=%d nonzero=%d chains=%d support=%d pivot=%s roundedNet=%s repairEvals=%d\n",
		exact(s.Objective), exact(s.Bound), s.Passes, s.Converged, s.Items, s.NonZero, s.Chains, s.Support, s.Pivot,
		exact(s.RoundedNet), s.RepairEvals)
	for _, e := range res.Trace {
		fmt.Fprintf(&b, "trace %s | benefit=%s\n", e.String(), exact(e.Benefit))
	}
	return b.String()
}

// TestLPSyntheticGolden pins the lp strategy's complete result on
// synthetic what-if spaces of 50 to 10k candidates, byte for byte:
// solver and rounding rewrites must reproduce every pick, statistic
// and trace line. Regenerate with -update only when a change is meant
// to alter recommendations.
func TestLPSyntheticGolden(t *testing.T) {
	ctx := context.Background()
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, n := range []int{50, 300, 2000, 10000} {
		for seed := uint64(1); seed <= 8; seed++ {
			sp, _ := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{})
			res, err := lpS.Search(ctx, sp)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			fmt.Fprintf(&got, "== n=%d seed=%d\n%s", n, seed, lpGoldenDump(res))
		}
	}
	path := filepath.Join("testdata", "lp_synthetic.golden")
	if *updateLPGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("lp result differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("lp result differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
