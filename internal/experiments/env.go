// Package experiments implements the reproduction harness: one function
// per experiment of the README "Experiments" index (E1–E14), each
// regenerating the data behind a demonstration step or figure of the
// paper as a printable table. The cmd/experiments binary prints them
// all; the repository-root benchmarks wrap each one.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/store"
	"repro/internal/workload"
)

// Scale selects the dataset size. Small keeps unit-test latency low;
// Medium is what cmd/experiments uses for reported numbers.
type Scale int

const (
	// Small is for tests and quick runs.
	Small Scale = iota
	// Medium is the reporting scale.
	Medium
)

func (s Scale) xmarkDocs() int {
	if s == Medium {
		return 1500
	}
	return 250
}

func (s Scale) tpoxSecurities() int {
	if s == Medium {
		return 120
	}
	return 25
}

// Env is a fully built experiment environment: generated XMark and TPoX
// databases, a catalog, and the standard workloads.
type Env struct {
	Scale Scale
	Store *store.Store
	Cat   *catalog.Catalog

	XMarkWorkload *workload.Workload
	TPoXWorkload  *workload.Workload

	// PaperWorkload is the §2.2 example workload.
	PaperWorkload *workload.Workload
}

var (
	envMu    sync.Mutex
	envCache = map[Scale]*Env{}
)

// BuildEnv builds (or returns the cached) environment for the scale.
// All generation is seeded: every call observes identical data.
func BuildEnv(s Scale) (*Env, error) {
	envMu.Lock()
	defer envMu.Unlock()
	if e := envCache[s]; e != nil {
		return e, nil
	}
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: s.xmarkDocs(), Seed: 42}); err != nil {
		return nil, err
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: s.tpoxSecurities(), Seed: 42}); err != nil {
		return nil, err
	}
	env := &Env{
		Scale:         s,
		Store:         st,
		Cat:           catalog.New(st),
		XMarkWorkload: datagen.XMarkWorkload(20, 1),
		TPoXWorkload:  datagen.TPoXWorkload(18, 1, s.tpoxSecurities()),
		PaperWorkload: datagen.XMarkPaperWorkload(),
	}
	envCache[s] = env
	return env, nil
}

// freshCatalog returns a new catalog over the same store, so experiments
// that materialize physical indexes do not leak them into later ones.
func (e *Env) freshCatalog() *catalog.Catalog {
	return catalog.New(e.Store)
}

// advisor builds a public-facade advisor over a fresh catalog with the
// given options. The experiment harness goes through the same API the
// CLI tools and the xiad server use; option values here are
// program-constant, so a validation failure is a programming error and
// panics.
func (e *Env) advisor(opts ...advisor.Option) *advisor.Advisor {
	a, err := advisor.New(e.freshCatalog(), opts...)
	if err != nil {
		panic(fmt.Sprintf("experiments: advisor options: %v", err))
	}
	return a
}

// optimizer builds an optimizer over a fresh catalog.
func (e *Env) optimizer() *optimizer.Optimizer {
	return optimizer.New(e.freshCatalog())
}

// table is a tiny fixed-width table builder for experiment output.
type table struct {
	header []string
	rows   [][]string
	title  string
}

func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		fmt.Fprintf(&sb, "%s\n", t.title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}
