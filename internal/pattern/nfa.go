package pattern

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Sym is one symbol of a concrete rooted path, viewed as a word: an element
// label, an attribute label, or a text node.
type Sym struct {
	Kind TestKind
	Name string
}

// ParseWord parses a concrete rooted path such as "/site/item/@id" or
// "/site/item/name/text()" into its symbol sequence. Unlike patterns,
// words may not contain wildcards or "//".
func ParseWord(path string) ([]Sym, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("pattern: concrete path %q must start with /", path)
	}
	if strings.Contains(path, "//") {
		return nil, fmt.Errorf("pattern: concrete path %q may not contain //", path)
	}
	parts := strings.Split(path[1:], "/")
	word := make([]Sym, 0, len(parts))
	for i, part := range parts {
		switch {
		case part == "text()":
			if i != len(parts)-1 {
				return nil, fmt.Errorf("pattern: text() must be last in %q", path)
			}
			word = append(word, Sym{Kind: TestText})
		case strings.HasPrefix(part, "@"):
			if i != len(parts)-1 {
				return nil, fmt.Errorf("pattern: attribute must be last in %q", path)
			}
			if len(part) == 1 {
				return nil, fmt.Errorf("pattern: empty attribute name in %q", path)
			}
			word = append(word, Sym{Kind: TestAttr, Name: part[1:]})
		case part == "" || part == "*":
			return nil, fmt.Errorf("pattern: bad step %q in concrete path %q", part, path)
		default:
			word = append(word, Sym{Kind: TestElem, Name: part})
		}
	}
	return word, nil
}

// matches reports whether the step's node test accepts the symbol.
func (s Step) matches(sym Sym) bool {
	if s.Kind != sym.Kind {
		return false
	}
	if s.Kind == TestText {
		return true
	}
	return s.Name == "" || s.Name == sym.Name
}

// Matcher is a compiled pattern. State i means "the first i steps have been
// matched"; state len(Steps) is accepting. A descendant-axis step i adds a
// self-loop at state i over any element symbol (the intervening ancestors
// of a descendant are always elements).
//
// Compilation precomputes the structural facts the containment kernel's
// fast paths and the subset simulation need: the descendant self-loop
// mask and flag, and the deduplicated concrete names (the symbolic
// alphabet contribution). Compile once and reuse — the package Interner
// hands out one Matcher per distinct pattern.
type Matcher struct {
	pat       Pattern
	acceptBit uint64 // bit of the accepting state
	selfLoop  uint64 // states with a descendant self-loop over elements
	hasDesc   bool
	names     []string // deduped concrete names mentioned by the pattern
}

// Compile returns a matcher for p, precomputing the step masks and name
// alphabet the matching and containment hot paths use.
func Compile(p Pattern) *Matcher {
	m := &Matcher{pat: p, acceptBit: 1 << uint(len(p.Steps))}
	for i, st := range p.Steps {
		if st.Axis == Descendant {
			m.selfLoop |= 1 << uint(i)
			m.hasDesc = true
		}
		if st.Name != "" {
			m.names = appendUniqueName(m.names, st.Name)
		}
	}
	return m
}

func appendUniqueName(names []string, n string) []string {
	for _, have := range names {
		if have == n {
			return names
		}
	}
	return append(names, n)
}

// next advances the subset simulation of the pattern automaton by one
// symbol. states and out are bitmasks over automaton states (bit i = state
// i); patterns are limited to 60 steps, far beyond anything real. Only set
// bits are visited, and the descendant self-loops are applied word-parallel
// through the precomputed mask.
func (m *Matcher) next(states uint64, sym Sym) uint64 {
	var out uint64
	if sym.Kind == TestElem {
		out = states & m.selfLoop
	}
	steps := m.pat.Steps
	for s := states &^ m.acceptBit; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		if steps[i].matches(sym) {
			out |= 1 << uint(i+1)
		}
	}
	return out
}

// MatchWord reports whether the pattern matches the concrete path word.
func (m *Matcher) MatchWord(word []Sym) bool {
	states := uint64(1) // {state 0}
	for _, sym := range word {
		states = m.next(states, sym)
		if states == 0 {
			return false
		}
	}
	return states&m.acceptBit != 0
}

// MatchPath reports whether the pattern matches the concrete rooted path.
// Malformed paths do not match.
func (m *Matcher) MatchPath(path string) bool {
	word, err := ParseWord(path)
	if err != nil {
		return false
	}
	return m.MatchWord(word)
}

// Pattern returns the pattern this matcher was compiled from.
func (m *Matcher) Pattern() Pattern { return m.pat }

// MatchesPath is a convenience wrapper: InternedMatcher(p).MatchPath(path).
func MatchesPath(p Pattern, path string) bool {
	return InternedMatcher(p).MatchPath(path)
}

// symbolicAlphabet returns a finite alphabet sufficient for deciding
// containment and intersection of the given patterns: every concrete name
// they mention, plus one fresh name per kind ("other" behaviour), plus the
// text symbol. Wildcard transitions treat all unmentioned names uniformly,
// so one representative fresh name is enough.
func symbolicAlphabet(pats ...Pattern) []Sym {
	names := map[string]bool{}
	for _, p := range pats {
		for _, n := range p.Names() {
			names[n] = true
		}
	}
	var alpha []Sym
	for n := range names {
		alpha = append(alpha, Sym{Kind: TestElem, Name: n})
		alpha = append(alpha, Sym{Kind: TestAttr, Name: n})
	}
	alpha = append(alpha,
		Sym{Kind: TestElem, Name: freshName},
		Sym{Kind: TestAttr, Name: freshName},
		Sym{Kind: TestText},
	)
	return alpha
}

// freshName represents every name no pattern mentions; it cannot collide
// with a parsed name.
const freshName = "\x00other"

// Contains reports whether p contains q: every concrete rooted path matched
// by q is also matched by p. This is the index-matching test — an index on
// pattern p can answer a query leg with pattern q iff Contains(p, q) — and
// the edge relation of the advisor's generalization DAG.
//
// The check is exact for this pattern fragment. Common shapes (identical
// patterns, descendant-free pairs, aligned step lists, //leaf roots) are
// decided structurally without touching automata; the rest run a
// product/subset search over the symbolic alphabet on pooled scratch
// buffers, so the decision allocates nothing in steady state.
func Contains(p, q Pattern) bool {
	if p.IsZero() || q.IsZero() {
		return false
	}
	return InternedMatcher(p).Contains(InternedMatcher(q))
}

// Contains reports whether m's pattern contains q's pattern.
func (m *Matcher) Contains(q *Matcher) bool {
	r, _ := m.ContainsDetail(q)
	return r
}

// ContainsDetail is Contains plus whether the structural fast path decided
// the answer (false means the product/subset automaton search ran).
func (m *Matcher) ContainsDetail(q *Matcher) (contained, structural bool) {
	if m.pat.IsZero() || q.pat.IsZero() {
		return false, true // zero patterns match nothing, as in Contains
	}
	if r, ok := structuralContains(m, q); ok {
		return r, true
	}
	return containsNFA(m, q), false
}

// structuralContains decides Contains(p, q) without automata when the
// pair's shape admits a direct argument. The cases below are exact; decided
// is false when the pair needs the full product search.
//
// Two facts drive the leaf and length filters: every word of L(q) ends with
// a symbol matching q's final step (the only transition into the accepting
// state), and every word of L(q) has at least len(q.Steps) symbols, with
// all non-final symbols being elements.
func structuralContains(p, q *Matcher) (result, decided bool) {
	ps, qs := p.pat.Steps, q.pat.Steps
	// Identical patterns contain each other.
	if p == q || p.pat.Equal(q.pat) {
		return true, true
	}
	// Leaf filter: q's words end with a symbol matching q's last step; p
	// must accept that final symbol with its own last step.
	lp, lq := ps[len(ps)-1], qs[len(qs)-1]
	if lp.Kind != lq.Kind {
		return false, true
	}
	if lp.Name != "" && lp.Name != lq.Name {
		// Covers both a differing concrete leaf and a wildcard q leaf
		// (lq.Name == ""), whose words end with names p's leaf rejects.
		return false, true
	}
	// Length filter: q's shortest word has exactly len(qs) symbols.
	if len(ps) > len(qs) {
		return false, true
	}
	if !p.hasDesc {
		// All of p's words have exactly len(ps) symbols.
		if q.hasDesc || len(qs) != len(ps) {
			return false, true
		}
		// Descendant-free pair of equal length: alignment is forced, so
		// step-wise wildcard comparison is exact in both directions.
		for i := range ps {
			if ps[i].Kind != qs[i].Kind {
				return false, true
			}
			if ps[i].Name != "" && ps[i].Name != qs[i].Name {
				return false, true
			}
		}
		return true, true
	}
	// p = "//leaf" (or "//*", "//@x", ...): a single descendant step
	// accepts exactly the words whose final symbol matches it (all
	// preceding symbols are elements by construction), and the leaf
	// filter above already verified q's final symbols match.
	if len(ps) == 1 {
		return true, true
	}
	// Aligned sufficient check: with equal lengths, every accepting parse
	// of a q word maps step-for-step onto p when each p step is at least
	// as general as its q counterpart (axis, kind, and name test).
	if len(ps) == len(qs) {
		for i := range ps {
			if ps[i].Kind != qs[i].Kind {
				return false, false // misaligned kinds: let the automata decide
			}
			if qs[i].Axis == Descendant && ps[i].Axis != Descendant {
				return false, false
			}
			if ps[i].Name != "" && ps[i].Name != qs[i].Name {
				return false, false
			}
			if qs[i].Name == "" && ps[i].Name != "" {
				return false, false
			}
		}
		return true, true
	}
	return false, false
}

// maxStates is the per-pattern automaton state count bound (60 steps plus
// the accepting state).
const maxStates = 61

// seenCap bounds the distinct p-subsets remembered per q-state before the
// search falls back to the map-based implementation. Reachable subset
// counts in this fragment are tiny; the cap exists for adversarial inputs.
const seenCap = 32

// pqPair is one frontier item of the inclusion search: q's NFA state plus
// the subset of p's states reachable on the same word.
type pqPair struct {
	pset   uint64
	qstate int32
}

// containsScratch is the pooled working set of one inclusion search: the
// merged name alphabet, the per-qstate visited p-subsets, and the explicit
// DFS stack. Pushes are bounded by the visited capacity, so the stack
// never overflows.
type containsScratch struct {
	names [2 * maxStates]string
	seen  [maxStates][seenCap]uint64
	cnt   [maxStates]uint16
	stack [maxStates * seenCap]pqPair
}

var containsPool = sync.Pool{New: func() any { return new(containsScratch) }}

// containsNFA decides language inclusion L(q) ⊆ L(p) with a product of
// q's NFA against the subset simulation of p, searched depth-first on
// pooled buffers: no maps, no queue, no per-call allocation.
func containsNFA(mp, mq *Matcher) bool {
	sc := containsPool.Get().(*containsScratch)
	defer containsPool.Put(sc)

	names := sc.names[:0]
	for _, n := range mp.names {
		names = appendUniqueName(names, n)
	}
	for _, n := range mq.names {
		names = appendUniqueName(names, n)
	}

	qAccept := int32(len(mq.pat.Steps))
	for i := int32(0); i <= qAccept; i++ {
		sc.cnt[i] = 0
	}
	stack := sc.stack[:0]
	overflow := false
	// push records (qstate, pset) if unseen; overflow trips the fallback.
	push := func(qstate int32, pset uint64) {
		c := sc.cnt[qstate]
		for k := uint16(0); k < c; k++ {
			if sc.seen[qstate][k] == pset {
				return
			}
		}
		if c >= seenCap {
			overflow = true
			return
		}
		sc.seen[qstate][c] = pset
		sc.cnt[qstate] = c + 1
		stack = append(stack, pqPair{pset: pset, qstate: qstate})
	}
	push(0, 1)

	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.qstate == qAccept && cur.pset&mp.acceptBit == 0 {
			clearNames(sc, len(names))
			return false // a word q accepts that p rejects
		}
		// Expand q's NFA one symbol at a time, tracking p's subset. The
		// alphabet is every mentioned name as element and attribute, one
		// fresh name per kind, and the text symbol.
		for k := 0; k <= len(names); k++ {
			name := freshName
			if k < len(names) {
				name = names[k]
			}
			for _, sym := range [2]Sym{{Kind: TestElem, Name: name}, {Kind: TestAttr, Name: name}} {
				pnext := mp.next(cur.pset, sym)
				qmask := mq.next(1<<uint(cur.qstate), sym)
				for s := qmask; s != 0; s &= s - 1 {
					push(int32(bits.TrailingZeros64(s)), pnext)
				}
			}
		}
		sym := Sym{Kind: TestText}
		pnext := mp.next(cur.pset, sym)
		qmask := mq.next(1<<uint(cur.qstate), sym)
		for s := qmask; s != 0; s &= s - 1 {
			push(int32(bits.TrailingZeros64(s)), pnext)
		}
		if overflow {
			clearNames(sc, len(names))
			return containsSlow(mp.pat, mq.pat)
		}
	}
	clearNames(sc, len(names))
	return true
}

// clearNames drops the scratch buffer's string references so a pooled
// scratch does not pin pattern names against the GC.
func clearNames(sc *containsScratch, n int) {
	for i := 0; i < n; i++ {
		sc.names[i] = ""
	}
}

// containsSlow is the map-backed subset BFS the kernel replaced. It is the
// overflow fallback for adversarial patterns whose reachable subset count
// exceeds the fixed scratch capacity, and the reference implementation the
// differential tests compare the fast kernel against.
func containsSlow(p, q Pattern) bool {
	if p.IsZero() || q.IsZero() {
		return false
	}
	mp := Compile(p)
	mq := Compile(q)
	alpha := symbolicAlphabet(p, q)

	type pair struct {
		qstate int
		pset   uint64
	}
	qAccept := len(q.Steps)
	pAcceptBit := uint64(1) << uint(len(p.Steps))

	start := pair{0, 1}
	seen := map[pair]bool{start: true}
	queue := []pair{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.qstate == qAccept && cur.pset&pAcceptBit == 0 {
			return false // a word q accepts that p rejects
		}
		for _, sym := range alpha {
			pnext := mp.next(cur.pset, sym)
			qmask := mq.next(1<<uint(cur.qstate), sym)
			for nq := 0; nq <= qAccept; nq++ {
				if qmask&(1<<uint(nq)) == 0 {
					continue
				}
				np := pair{nq, pnext}
				if !seen[np] {
					seen[np] = true
					queue = append(queue, np)
				}
			}
		}
	}
	return true
}

// Overlaps reports whether some concrete rooted path is matched by both p
// and q (language intersection non-emptiness). The advisor uses this to
// decide whether a data modification under pattern q incurs maintenance
// work on an index with pattern p.
//
// Non-emptiness needs no subset construction: it is plain reachability in
// the product of the two NFAs, searched here over single-state pairs with
// a dense per-state visited bitmask and an explicit stack — exact, and
// allocation-free.
func Overlaps(p, q Pattern) bool {
	if p.IsZero() || q.IsZero() {
		return false
	}
	ps, qs := p.Steps, q.Steps
	// Leaf filter: words of both languages end with a symbol matching the
	// respective final step; a shared word needs a shared final symbol.
	lp, lq := ps[len(ps)-1], qs[len(qs)-1]
	if lp.Kind != lq.Kind {
		return false
	}
	if lp.Name != "" && lq.Name != "" && lp.Name != lq.Name {
		return false
	}

	np, nq := len(ps), len(qs)
	// visited[i] bit j: product state (p at i, q at j) seen.
	var visited [maxStates]uint64
	var stack [maxStates * maxStates]uint16
	top := 0
	push := func(i, j int) {
		if visited[i]&(1<<uint(j)) != 0 {
			return
		}
		visited[i] |= 1 << uint(j)
		stack[top] = uint16(i)<<8 | uint16(j)
		top++
	}
	push(0, 0)
	for top > 0 {
		top--
		i, j := int(stack[top]>>8), int(stack[top]&0xff)
		if i == np && j == nq {
			return true
		}
		if i == np || j == nq {
			continue // one side accepted; no transitions extend the word
		}
		sp, sq := ps[i], qs[j]
		// Both advance on one shared symbol.
		if sp.Kind == sq.Kind && (sp.Kind == TestText || sp.Name == "" || sq.Name == "" || sp.Name == sq.Name) {
			push(i+1, j+1)
		}
		// p advances while q's descendant self-loop consumes the element.
		if sq.Axis == Descendant && sp.Kind == TestElem {
			push(i+1, j)
		}
		// q advances while p's descendant self-loop consumes the element.
		if sp.Axis == Descendant && sq.Kind == TestElem {
			push(i, j+1)
		}
	}
	return false
}
