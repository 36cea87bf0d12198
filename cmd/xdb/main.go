// Command xdb is a small interactive shell over the XML database
// substrate: load or generate documents, create real indexes, run
// XQuery/SQL-XML queries, and invoke the two EXPLAIN modes the advisor
// relies on. It is the "visual client" of the demonstration, rendered as
// a REPL.
//
//	xdb                          # interactive
//	xdb -c 'gen xmark 200 1; enumerate for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 return $i/name'
//	xdb -parallel 4              # what-if evaluation worker count
//
// Commands:
//
//	gen xmark <docs> <seed> | gen tpox <securities> <seed>
//	load <collection> <dir>
//	ls
//	stats <collection> [n]
//	create <name> <collection> <pattern> <type>
//	drop <name>
//	query <query text>
//	explain <query text>
//	enumerate <query text>
//	evaluate <pattern>:<type>[,<pattern>:<type>...] :: <query text>
//	whatif [-relevance] <pattern>:<type>[,<pattern>:<type>...] :: <workload-file>
//	candidates <workload-file> [rules]
//	search <workload-file> [budget-pages]
//	search -synthetic n=N [budget-pages]
//	snapshot save <workload-file> <path> [strategy]
//	snapshot restore <path> [budget-pages]
//	snapshot inspect <path>
//	help | quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/whatif"
	"repro/internal/workload"
)

type shell struct {
	st       *store.Store
	cat      *catalog.Catalog
	opt      *optimizer.Optimizer
	what     *whatif.Engine
	ex       *executor.Executor
	out      *bufio.Writer
	parallel int // what-if worker count (-parallel; 0 = GOMAXPROCS)
}

func main() {
	cmds := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	parallel := flag.Int("parallel", 0, "concurrent what-if evaluations (0 = GOMAXPROCS)")
	flag.Parse()

	sh := newShell(*parallel)
	defer sh.out.Flush()
	if *cmds != "" {
		for _, c := range strings.Split(*cmds, ";") {
			if err := sh.run(strings.TrimSpace(c)); err != nil {
				fmt.Fprintln(os.Stderr, "xdb:", err)
				sh.out.Flush()
				os.Exit(1)
			}
		}
		return
	}
	fmt.Fprintln(sh.out, "xdb shell — 'help' for commands")
	sh.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(sh.out, "xdb> ")
		sh.out.Flush()
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line == "" {
			continue
		}
		if err := sh.run(line); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
		sh.out.Flush()
	}
}

func newShell(parallel int) *shell {
	st := store.New()
	cat := catalog.New(st)
	opt := optimizer.New(cat)
	// The shell's what-if costing does not hide real indexes (the DBA
	// wants the configuration on top of what exists), so VirtualOnly is
	// off — unlike the advisor's engine.
	svc := &whatif.OptimizerService{Opt: opt}
	return &shell{
		st:  st,
		cat: cat,
		opt: opt,
		// The shell is long-lived; cap the cache like the advisor does.
		what:     whatif.NewEngine(svc, whatif.Options{Workers: parallel, MaxEntries: 1 << 16}),
		ex:       executor.New(cat),
		out:      bufio.NewWriter(os.Stdout),
		parallel: parallel,
	}
}

func (s *shell) run(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, "commands: gen, load, ls, stats, create, drop, query, explain, enumerate, evaluate, whatif, candidates, search, snapshot, quit")
		return nil
	case "gen":
		// Mutating commands invalidate memoized what-if costs: the
		// engine's cache keys carry no catalog version.
		s.what.Flush()
		return s.cmdGen(rest)
	case "load":
		s.what.Flush()
		return s.cmdLoad(rest)
	case "ls":
		return s.cmdLs()
	case "stats":
		return s.cmdStats(rest)
	case "create":
		s.what.Flush()
		return s.cmdCreate(rest)
	case "drop":
		s.what.Flush()
		if !s.cat.DropIndex(rest) {
			return fmt.Errorf("no index %q", rest)
		}
		fmt.Fprintf(s.out, "dropped %s\n", rest)
		return nil
	case "query":
		return s.cmdQuery(rest, true)
	case "explain":
		return s.cmdQuery(rest, false)
	case "enumerate":
		return s.cmdEnumerate(rest)
	case "evaluate":
		return s.cmdEvaluate(rest)
	case "whatif":
		return s.cmdWhatIf(rest)
	case "candidates":
		return s.cmdCandidates(rest)
	case "search":
		return s.cmdSearch(rest)
	case "snapshot":
		return s.cmdSnapshot(rest)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *shell) cmdGen(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("usage: gen xmark <docs> <seed> | gen tpox <securities> <seed>")
	}
	n, seed := 200, int64(1)
	if len(fields) > 1 {
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		n = v
	}
	if len(fields) > 2 {
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return err
		}
		seed = v
	}
	msg, err := datagen.Generate(s.st, fields[0], n, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, msg)
	return nil
}

func (s *shell) cmdLoad(rest string) error {
	coll, dir, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("usage: load <collection> <dir>")
	}
	loaded, err := datagen.LoadDir(s.st, coll, strings.TrimSpace(dir))
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "loaded %d documents into %s\n", loaded, coll)
	return nil
}

func (s *shell) cmdLs() error {
	for _, name := range s.st.Names() {
		col := s.st.Get(name)
		fmt.Fprintf(s.out, "collection %-12s %6d docs %8d nodes %6d pages\n",
			name, col.Len(), col.NodeCount(), col.Pages())
	}
	for _, def := range s.cat.Indexes("") {
		fmt.Fprintf(s.out, "index %s\n", def)
	}
	return nil
}

func (s *shell) cmdStats(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("usage: stats <collection> [n]")
	}
	limit := 15
	if len(fields) > 1 {
		if v, err := strconv.Atoi(fields[1]); err == nil {
			limit = v
		}
	}
	st, err := s.cat.Stats(fields[0])
	if err != nil {
		return err
	}
	type row struct {
		path  string
		count int64
	}
	var rows []row
	for p, ps := range st.Paths {
		rows = append(rows, row{p, ps.Count})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].path < rows[j].path
	})
	fmt.Fprintf(s.out, "%s: %d docs, %d nodes, %d distinct paths\n", fields[0], st.Docs, st.Nodes, len(st.Paths))
	for i, r := range rows {
		if i >= limit {
			break
		}
		fmt.Fprintf(s.out, "  %8d  %s\n", r.count, r.path)
	}
	return nil
}

func (s *shell) cmdCreate(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) != 4 {
		return fmt.Errorf("usage: create <name> <collection> <pattern> <type>")
	}
	p, err := pattern.Parse(fields[2])
	if err != nil {
		return err
	}
	ty, err := sqltype.ParseType(fields[3])
	if err != nil {
		return err
	}
	def, err := s.cat.CreateIndex(fields[0], fields[1], p, ty)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "created %s\n", def)
	return nil
}

func (s *shell) cmdQuery(text string, exec bool) error {
	q, err := querylang.ParseAuto(text)
	if err != nil {
		return err
	}
	plan, err := s.opt.Optimize(q, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "plan: %s\n", plan.Describe())
	if !exec {
		return nil
	}
	res, err := s.ex.Run(q, plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "rows: %d  (scanned %d docs, fetched %d, visited %d nodes, %v)\n",
		res.Rows, res.Metrics.DocsScanned, res.Metrics.DocsFetched,
		res.Metrics.NodesVisited, res.Metrics.Duration)
	return nil
}

func (s *shell) cmdEnumerate(text string) error {
	q, err := querylang.ParseAuto(text)
	if err != nil {
		return err
	}
	rep, err := s.opt.ExplainEnumerate(q)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, rep)
	return nil
}

// configItem is one entry of a "<pattern>:<type>[,...]" configuration
// list.
type configItem struct {
	pat pattern.Pattern
	ty  sqltype.Type
}

// parseConfig parses a "<pattern>:<type>[,...]" configuration list.
func parseConfig(list string) ([]configItem, error) {
	var items []configItem
	for _, item := range strings.Split(strings.TrimSpace(list), ",") {
		patStr, tyStr, ok := strings.Cut(strings.TrimSpace(item), ":")
		if !ok {
			return nil, fmt.Errorf("config item %q: want <pattern>:<type>", item)
		}
		p, err := pattern.Parse(strings.TrimSpace(patStr))
		if err != nil {
			return nil, err
		}
		ty, err := sqltype.ParseType(tyStr)
		if err != nil {
			return nil, err
		}
		items = append(items, configItem{pat: p, ty: ty})
	}
	return items, nil
}

// cmdEvaluate parses "<pattern>:<type>[,...] :: <query>".
func (s *shell) cmdEvaluate(rest string) error {
	cfgStr, qStr, ok := strings.Cut(rest, "::")
	if !ok {
		return fmt.Errorf("usage: evaluate <pattern>:<type>[,...] :: <query>")
	}
	q, err := querylang.ParseAuto(strings.TrimSpace(qStr))
	if err != nil {
		return err
	}
	st, err := s.cat.Stats(q.Collection)
	if err != nil {
		return err
	}
	items, err := parseConfig(cfgStr)
	if err != nil {
		return err
	}
	var defs []*catalog.IndexDef
	for i, it := range items {
		defs = append(defs, catalog.VirtualDef(fmt.Sprintf("V%d", i+1), q.Collection, it.pat, it.ty, st))
	}
	ev, err := s.opt.EvaluateIndexes(q, defs, false)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, optimizer.RenderEvaluation(q.Text, defs, ev.CostNoIndexes, ev.Cost, ev.Benefit, ev.Plan.Describe()))
	return nil
}

// cmdWhatIf parses "whatif [-relevance] <pattern>:<type>[,...] ::
// <workload-file>" and costs the whole workload under the virtual
// configuration through the what-if engine — the fan-out path the
// -parallel flag governs. The per-query rows show each query's
// relevance-projected atom: how many of the configuration's definitions
// can serve the query at all, and whether its cost came from the cache.
// -relevance additionally prints the relevant-candidate count
// distribution across the workload's queries. -faults=<spec> routes
// the evaluation through a one-off engine whose cost service injects
// deterministic faults behind the resilience middleware
// (whatif.ParseFaultSpec syntax) — the interactive window into the
// retry/breaker behavior the advisor runs with in production.
func (s *shell) cmdWhatIf(rest string) error {
	relevance := false
	faultSpec := ""
	for {
		word, tail, ok := strings.Cut(rest, " ")
		if ok && word == "-relevance" {
			relevance = true
			rest = strings.TrimSpace(tail)
			continue
		}
		if ok && strings.HasPrefix(word, "-faults=") {
			faultSpec = strings.TrimPrefix(word, "-faults=")
			rest = strings.TrimSpace(tail)
			continue
		}
		break
	}
	cfgStr, path, ok := strings.Cut(rest, "::")
	if !ok {
		return fmt.Errorf("usage: whatif [-relevance] [-faults=<spec>] <pattern>:<type>[,...] :: <workload-file>")
	}
	text, err := os.ReadFile(strings.TrimSpace(path))
	if err != nil {
		return err
	}
	w, err := workload.Parse(filepath.Base(strings.TrimSpace(path)), string(text))
	if err != nil {
		return err
	}
	if len(w.Queries) == 0 {
		return fmt.Errorf("workload has no queries")
	}
	// Parse the configuration once, then instantiate one set of
	// virtual defs per collection the workload touches; the engine
	// hands each query only its own collection's indexes.
	items, err := parseConfig(cfgStr)
	if err != nil {
		return err
	}
	var defs []*catalog.IndexDef
	seen := map[string]bool{}
	queries := w.QueryList()
	for _, e := range w.Queries {
		coll := e.Query.Collection
		if seen[coll] {
			continue
		}
		seen[coll] = true
		st, err := s.cat.Stats(coll)
		if err != nil {
			return err
		}
		for i, it := range items {
			defs = append(defs, catalog.VirtualDef(fmt.Sprintf("V%d_%s", i+1, coll), coll, it.pat, it.ty, st))
		}
	}
	eng := s.what
	var fsvc *whatif.FaultService
	var rsvc *whatif.ResilientService
	if faultSpec != "" {
		sched, err := whatif.ParseFaultSpec(faultSpec)
		if err != nil {
			return err
		}
		// A one-off engine so injected faults never poison the shell's
		// long-lived cache: optimizer → fault injector → resilience.
		fsvc = whatif.NewFaultService(&whatif.OptimizerService{Opt: s.opt}, sched)
		rsvc = whatif.NewResilientService(fsvc, whatif.ResilientOptions{})
		eng = whatif.NewEngine(rsvc, whatif.Options{Workers: s.parallel, MaxEntries: 1 << 16})
	}
	// Each query is evaluated on its own tally, so the table can say
	// whether its atom came from the cache; the outer tally sums them.
	ctx, tally := whatif.WithTally(context.Background())
	rel := make([]int, len(queries))
	var noIdx, withIdx float64
	fmt.Fprintf(s.out, "%-8s %12s %12s %10s %4s %6s  %s\n",
		"query", "no-index", "with-config", "benefit", "rel", "cached", "indexes used")
	for qi, e := range w.Queries {
		b := eng.Bind(queries[qi : qi+1])
		qctx, qtally := whatif.WithTally(ctx)
		res, err := b.EvaluateConfig(qctx, defs)
		if err != nil {
			return err
		}
		qe := res.Queries[0]
		rel[qi] = b.RelevantCounts(defs)[0]
		noIdx += e.Weight * qe.CostNoIndexes
		withIdx += e.Weight * qe.Cost
		cached := "miss"
		if qtally.Stats().Hits > 0 {
			cached = "hit"
		}
		fmt.Fprintf(s.out, "%-8s %12.2f %12.2f %10.2f %4d %6s  %s\n",
			e.Query.ID, qe.CostNoIndexes, qe.Cost, qe.Benefit(),
			rel[qi], cached, strings.Join(qe.UsedIndexes, ","))
	}
	st := tally.Stats()
	fmt.Fprintf(s.out, "weighted: no-index %.1f, with-config %.1f (benefit %.1f)\n", noIdx, withIdx, noIdx-withIdx)
	fmt.Fprintf(s.out, "what-if engine: %d workers, %d evaluations, %d hits (%d projected), %d misses\n",
		eng.Workers(), st.Evaluations, st.Hits, st.ProjectedHits, st.Misses)
	if fsvc != nil {
		rc := st.Resilience
		fmt.Fprintf(s.out, "fault injection: %d calls, %d faults injected; retries %d, call timeouts %d, breaker trips %d (state: %s)\n",
			fsvc.Calls(), fsvc.Injected(), rc.Retries, rc.CallTimeouts, rc.BreakerTrips, rsvc.State())
	}
	if relevance {
		rs := whatif.NewRelevanceStats(rel)
		fmt.Fprintf(s.out, "relevant config definitions per query: min %d, median %d, p95 %d, max %d (mean %.1f over %d queries)\n",
			rs.Min, rs.Median, rs.P95, rs.Max, rs.Mean, rs.Queries)
	}
	return nil
}

// cmdCandidates parses "<workload-file> [rules]" and opens an advisor
// session over the current catalog, dumping the candidate pipeline
// stats and the containment DAG it built without running the
// configuration search.
func (s *shell) cmdCandidates(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("usage: candidates <workload-file> [rules]")
	}
	text, err := os.ReadFile(fields[0])
	if err != nil {
		return err
	}
	w, err := workload.Parse(filepath.Base(fields[0]), string(text))
	if err != nil {
		return err
	}
	spec := ""
	if len(fields) == 2 {
		spec = fields[1]
	}
	adv, err := advisor.New(s.cat, advisor.WithRules(spec), advisor.WithParallelism(s.parallel))
	if err != nil {
		return err
	}
	sess, err := adv.Open(context.Background(), w)
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Fprintln(s.out, sess.Pipeline().String())
	fmt.Fprintln(s.out, pattern.Stats().String())
	fmt.Fprint(s.out, sess.DAGText())
	return nil
}

// cmdSearch parses "<workload-file> [budget-pages]" or "-synthetic n=N
// [budget-pages]" and compares every registered search strategy
// side-by-side: one advisor prepares the candidate space once (or the
// deterministic synthetic generator builds it), then each strategy
// searches it at the same budget. The evals column is the count of
// configurations each strategy priced.
func (s *shell) cmdSearch(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) >= 1 && fields[0] == "-synthetic" {
		return s.cmdSearchSynthetic(fields[1:])
	}
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("usage: search <workload-file> [budget-pages] | search -synthetic n=N [budget-pages]")
	}
	text, err := os.ReadFile(fields[0])
	if err != nil {
		return err
	}
	w, err := workload.Parse(filepath.Base(fields[0]), string(text))
	if err != nil {
		return err
	}
	var budget int64
	if len(fields) == 2 {
		if budget, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad budget: %v", err)
		}
	}
	ctx := context.Background()
	adv, err := advisor.New(s.cat, advisor.WithParallelism(s.parallel))
	if err != nil {
		return err
	}
	sess, err := adv.Open(ctx, w)
	if err != nil {
		return err
	}
	defer sess.Close()
	s.searchTableHeader()
	for _, name := range advisor.Strategies() {
		resp, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: name, BudgetPages: budget})
		if err != nil {
			return err
		}
		note := ""
		if resp.Search.Winner != "" {
			note = "winner " + resp.Search.Winner
		}
		if lps := resp.Search.LP; lps != nil {
			note = fmt.Sprintf("lp objective %.1f, bound %.1f, %d passes", lps.Objective, lps.Bound, lps.Passes)
		}
		s.searchTableRow(name, len(resp.Indexes), resp.TotalPages, resp.NetBenefit, resp.Search.Rounds,
			resp.Search.Elapsed, resp.Search.Evals, resp.Cache.Hits, note)
	}
	return nil
}

// cmdSearchSynthetic drives the deterministic synthetic candidate-space
// generator ("search -synthetic n=N [seed=S] [budget-pages]"): no
// documents, no optimizer — just the search layer at scale, every
// registered strategy over the same space. The generator seed defaults to 42 (the benchmark spaces)
// and is always echoed, so any printed table can be reproduced.
func (s *shell) cmdSearchSynthetic(fields []string) error {
	usage := fmt.Errorf("usage: search -synthetic n=N [seed=S] [budget-pages]")
	if len(fields) < 1 {
		return usage
	}
	spec := strings.TrimPrefix(fields[0], "n=")
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 {
		return fmt.Errorf("bad candidate count %q: want n=N", fields[0])
	}
	seed := uint64(42)
	rest := fields[1:]
	if len(rest) > 0 && strings.HasPrefix(rest[0], "seed=") {
		seed, err = strconv.ParseUint(strings.TrimPrefix(rest[0], "seed="), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: want seed=S", rest[0])
		}
		rest = rest[1:]
	}
	if len(rest) > 1 {
		return usage
	}
	sp := search.NewSyntheticSpace(n, seed)
	if len(rest) == 1 {
		budget, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad budget: %v", err)
		}
		sp = sp.WithBudget(budget)
	}
	fmt.Fprintf(s.out, "synthetic space: %d candidates (%d DAG roots), budget %d pages, seed %d\n",
		len(sp.Candidates), len(sp.DAG.Roots), sp.BudgetPages, seed)
	ctx := context.Background()
	s.searchTableHeader()
	for _, name := range search.Names() {
		strat, err := search.Lookup(name)
		if err != nil {
			return err
		}
		res, err := strat.Search(ctx, sp)
		if err != nil {
			return err
		}
		note := ""
		if res.Stats.Winner != "" {
			note = "winner " + res.Stats.Winner
		}
		if lps := res.Stats.LP; lps != nil {
			note = fmt.Sprintf("lp objective %.1f, bound %.1f, %d passes", lps.Objective, lps.Bound, lps.Passes)
		}
		s.searchTableRow(name, len(res.Config), res.Pages, res.Eval.Net, res.Stats.Rounds,
			res.Stats.Elapsed, res.Stats.Evals, res.Stats.Cache.Hits, note)
	}
	return nil
}

// cmdSnapshot is the durable-session toolbox:
//
//	snapshot save <workload-file> <path> [strategy]   prepare + recommend, write the session snapshot
//	snapshot restore <path> [budget-pages]            rebuild the session and recommend warm
//	snapshot inspect <path>                           print version, sections, and cardinalities
func (s *shell) cmdSnapshot(rest string) error {
	usage := fmt.Errorf("usage: snapshot save <workload-file> <path> [strategy] | snapshot restore <path> [budget-pages] | snapshot inspect <path>")
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return usage
	}
	switch fields[0] {
	case "save":
		if len(fields) < 3 || len(fields) > 4 {
			return usage
		}
		strategy := ""
		if len(fields) == 4 {
			strategy = fields[3]
		}
		return s.snapshotSave(fields[1], fields[2], strategy)
	case "restore":
		var budget int64
		if len(fields) > 3 {
			return usage
		}
		if len(fields) == 3 {
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return fmt.Errorf("bad budget: %v", err)
			}
			budget = v
		}
		return s.snapshotRestore(fields[1], budget)
	case "inspect":
		if len(fields) != 2 {
			return usage
		}
		return s.snapshotInspect(fields[1])
	default:
		return usage
	}
}

// snapshotSave opens a session for the workload, runs one
// recommendation so the saved cache atoms cover a full search, and
// writes the snapshot.
func (s *shell) snapshotSave(workloadFile, path, strategy string) error {
	text, err := os.ReadFile(workloadFile)
	if err != nil {
		return err
	}
	w, err := workload.Parse(filepath.Base(workloadFile), string(text))
	if err != nil {
		return err
	}
	ctx := context.Background()
	adv, err := advisor.New(s.cat, advisor.WithParallelism(s.parallel))
	if err != nil {
		return err
	}
	sess, err := adv.Open(ctx, w)
	if err != nil {
		return err
	}
	defer sess.Close()
	resp, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: strategy})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := sess.SnapshotToFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %s: %d bytes in %v (%d indexes recommended by %s, %d what-if evaluations cached)\n",
		path, fi.Size(), time.Since(start).Round(time.Millisecond), len(resp.Indexes), resp.Strategy, resp.Cache.Evaluations)
	return nil
}

// snapshotRestore rebuilds the session over the shell's catalog and
// recommends, printing the warm-start evidence: elapsed restore time
// and how many what-if evaluations the recommendation issued (zero
// when the snapshot covered the search).
func (s *shell) snapshotRestore(path string, budget int64) error {
	ctx := context.Background()
	adv, err := advisor.New(s.cat, advisor.WithParallelism(s.parallel))
	if err != nil {
		return err
	}
	start := time.Now()
	sess, err := adv.RestoreFile(ctx, path)
	if err != nil {
		return err
	}
	defer sess.Close()
	restoreTime := time.Since(start)
	resp, err := sess.Recommend(ctx, advisor.RecommendRequest{BudgetPages: budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "restored %s in %v (workload %s)\n", path, restoreTime.Round(time.Millisecond), sess.Workload())
	fmt.Fprint(s.out, resp.Report())
	fmt.Fprintf(s.out, "warm start: %d what-if evaluations issued by this recommendation\n", resp.Evaluations)
	return nil
}

// snapshotInspect prints a snapshot file's framing without restoring
// it: format version, creation time, workload, per-section payload
// sizes, and the section cardinalities.
func (s *shell) snapshotInspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := advisor.InspectSnapshot(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%s: session snapshot v%d, %d bytes\n", path, info.Version, info.TotalBytes)
	fmt.Fprintf(s.out, "  created:  %s\n", time.UnixMilli(info.CreatedUnixMS).UTC().Format(time.RFC3339))
	fmt.Fprintf(s.out, "  workload: %s (%d queries, %d updates)\n", info.WorkloadName, info.Queries, info.Updates)
	fmt.Fprintf(s.out, "  options:  %s\n", info.OptionsFP)
	for _, cv := range info.Collections {
		fmt.Fprintf(s.out, "  collection %s @ stats version %d\n", cv.Name, cv.Version)
	}
	fmt.Fprintf(s.out, "  %d patterns, %d candidates (%d basic), %d cache atoms, %d benefit rows\n",
		info.Patterns, info.Candidates, info.Basics, info.Atoms, info.BenefitRows)
	fmt.Fprintln(s.out, "  sections:")
	for _, sec := range info.Sections {
		fmt.Fprintf(s.out, "    %-9s %8d bytes\n", sec.Section, sec.Bytes)
	}
	return nil
}

func (s *shell) searchTableHeader() {
	fmt.Fprintf(s.out, "%-17s %5s %8s %12s %7s %9s %8s %8s  %s\n",
		"strategy", "#idx", "pages", "net benefit", "rounds", "time", "evals", "hits", "notes")
}

func (s *shell) searchTableRow(name string, idx int, pages int64, net float64, rounds int,
	elapsed time.Duration, evals, hits int64, note string) {
	fmt.Fprintf(s.out, "%-17s %5d %8d %12.1f %7d %9v %8d %8d  %s\n",
		name, idx, pages, net, rounds, elapsed.Round(time.Millisecond), evals, hits, note)
}
