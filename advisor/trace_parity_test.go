package advisor_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/search"
)

// wireWithoutTiming is the response's wire form with its trace and wall
// times removed: what must not depend on whether a trace was asked for.
func wireWithoutTiming(t *testing.T, resp *advisor.RecommendResponse) string {
	t.Helper()
	c := *resp
	c.Trace = nil
	c.ElapsedMS = 0
	c.Search.Elapsed = 0
	c.Search.Members = append([]search.Stats(nil), c.Search.Members...)
	for i := range c.Search.Members {
		c.Search.Members[i].Elapsed = 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTraceOffResponseParity pins IncludeTrace as a payload switch only:
// for every strategy on xmark, TPoX and paper, a warm session's response
// without the trace equals the response with it, byte for byte on the
// wire once the trace and wall times are removed, and carries no trace.
func TestTraceOffResponseParity(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		sess, err := adv.Open(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range search.Names() {
			req := advisor.RecommendRequest{Strategy: strategy}
			// Warm the session, so both requests below count the same
			// cache work.
			if _, err := sess.Recommend(ctx, req); err != nil {
				t.Fatal(err)
			}
			traced := req
			traced.IncludeTrace = true
			with, err := sess.Recommend(ctx, traced)
			if err != nil {
				t.Fatal(err)
			}
			without, err := sess.Recommend(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(with.Trace) == 0 || without.Trace != nil {
				t.Errorf("%s %s: %d trace events asked for, %d not asked for", name, strategy, len(with.Trace), len(without.Trace))
			}
			if got, want := wireWithoutTiming(t, without), wireWithoutTiming(t, with); got != want {
				t.Errorf("%s %s: the untraced response differs\nuntraced: %s\ntraced:   %s", name, strategy, got, want)
			}
		}
		sess.Close()
	}
}

// BenchmarkSessionRecommend serves one warm Session.Recommend per
// registered strategy on an xmark session, with the search trace asked
// for and without it: search, assembly and the v1 response.
func BenchmarkSessionRecommend(b *testing.B) {
	env, workloads := testWorkloads(b)
	ctx := context.Background()
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := adv.Open(ctx, workloads["xmark"])
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for _, strategy := range search.Names() {
		for _, traced := range []bool{true, false} {
			name := strategy + "/trace-off"
			if traced {
				name = strategy + "/trace-on"
			}
			b.Run(name, func(b *testing.B) {
				req := advisor.RecommendRequest{Strategy: strategy, IncludeTrace: traced}
				if _, err := sess.Recommend(ctx, req); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Recommend(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
