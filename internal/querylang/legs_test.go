package querylang_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/querylang"
	"repro/internal/workload"
)

// legSig renders every field of a leg that the optimizer reads.
func legSig(l querylang.Leg) string {
	return fmt.Sprintf("%s|disjunct=%v|group=%d", l.Key(), l.Disjunct, l.OrGroup)
}

// TestLegsComputedOnce checks the Legs memo: eight goroutines call Legs
// on the same queries at once, starting before any call has derived the
// legs, and every call must return the same backing array, equal leg by
// leg to the legs of a fresh parse of the query text.
func TestLegsComputedOnce(t *testing.T) {
	var queries []*querylang.Query
	for _, w := range []*workload.Workload{
		datagen.XMarkWorkload(20, 1),
		datagen.TPoXWorkload(18, 1, 50),
		datagen.XMarkPaperWorkload(),
	} {
		q, err := querylang.ParseAuto(w.Queries[0].Query.Text)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	const goroutines = 8
	got := make([][][]querylang.Leg, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for _, q := range queries {
				got[g] = append(got[g], q.Legs())
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for i, q := range queries {
		fresh, err := querylang.ParseAuto(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Legs()
		if len(want) == 0 {
			t.Fatalf("%s: no legs", q.Text)
		}
		first := got[0][i]
		for g := 0; g < goroutines; g++ {
			legs := got[g][i]
			if len(legs) != len(first) || &legs[0] != &first[0] {
				t.Errorf("%s: goroutine %d got a different legs slice than goroutine 0", q.Text, g)
			}
		}
		if len(first) != len(want) {
			t.Fatalf("%s: %d legs, fresh parse has %d", q.Text, len(first), len(want))
		}
		for j := range want {
			if a, b := legSig(first[j]), legSig(want[j]); a != b {
				t.Errorf("%s: leg %d is %s, fresh parse has %s", q.Text, j, a, b)
			}
		}
	}
}
