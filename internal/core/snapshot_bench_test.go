package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/snapshot"
)

// benchSession builds the benchmark session: XMark at 500 documents,
// the paper workload and one full recommend, so the snapshot carries a
// realistic atom load.
func benchSession(b *testing.B) (*catalog.Catalog, *Prepared, []byte) {
	b.Helper()
	_, cat := xmarkStoreFixture(b, 500)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.RecommendWith(ctx, SearchGreedyHeuristic, 0); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return cat, p, buf.Bytes()
}

// BenchmarkSnapshotSave measures serializing a warm session.
func BenchmarkSnapshotSave(b *testing.B) {
	_, p, data := benchSession(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode measures the codec alone: bytes to the
// validated in-memory snapshot, no advisor reconstruction.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, _, data := benchSession(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures the full warm start: decode,
// verify against the catalog, rebuild the candidate set and DAG, and
// import the cache atoms into a cold engine.
func BenchmarkSnapshotRestore(b *testing.B) {
	cat, _, data := benchSession(b)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(cat, DefaultOptions())
		if _, err := a.LoadPrepared(ctx, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if n := a.CostEngine().Stats().Evaluations; n != 0 {
			b.Fatalf("restore issued %d evaluations", n)
		}
	}
}

// BenchmarkColdOpenRecommend is the baseline the restore path replaces:
// a fresh advisor prepares the workload from scratch and recommends.
// evals/op reports the cost-service calls the run issued.
func BenchmarkColdOpenRecommend(b *testing.B) {
	cat, _, _ := benchSession(b)
	ctx := context.Background()
	w := datagen.XMarkPaperWorkload()
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		a := New(cat, DefaultOptions())
		p, err := a.Prepare(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RecommendWith(ctx, SearchGreedyHeuristic, 0); err != nil {
			b.Fatal(err)
		}
		evals += a.CostEngine().Stats().Evaluations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkWarmRestoreRecommend is the same request served from a
// snapshot: restore into a fresh advisor (cold engine) and recommend.
// evals/op stays at zero — every atom the search needs is imported.
func BenchmarkWarmRestoreRecommend(b *testing.B) {
	cat, _, data := benchSession(b)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		a := New(cat, DefaultOptions())
		p, err := a.LoadPrepared(ctx, bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RecommendWith(ctx, SearchGreedyHeuristic, 0); err != nil {
			b.Fatal(err)
		}
		evals += a.CostEngine().Stats().Evaluations
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
