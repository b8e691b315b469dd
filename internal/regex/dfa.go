package regex

import (
	"encoding/binary"
	"slices"
	"sort"
)

// DFA is a complete deterministic automaton: every state has exactly one
// successor per alphabet symbol (a dead state absorbs non-matches).
type DFA struct {
	Alphabet *Alphabet
	States   int
	Start    int
	Accept   []bool
	Trans    [][]int // Trans[state][symbol]
}

// Determinize performs the subset construction, producing a complete DFA.
// It computes a subset's successor once per symbol class of the NFA's
// edges (see symClasses), all classes in one pass over the edges, and
// fills the per-symbol rows from the class results. Successors are
// registered in class order — the order of each class's lowest symbol —
// so DFA states are numbered exactly as a per-symbol construction
// discovers them.
func (n *NFA) Determinize() *DFA {
	size := n.Alphabet.Size()
	cls := newSymClasses(size)
	for i := range n.Edges {
		cls.refineSet(n.Edges[i].Set)
	}
	k := len(cls.rep)
	// The classes each edge's set contains: edge j's are
	// edgeCls[clsAt[j]:clsAt[j+1]].
	clsAt := make([]int, len(n.Edges)+1)
	var edgeCls []int32
	for j := range n.Edges {
		e := &n.Edges[j]
		for c, sym := range cls.rep {
			if e.Set.Has(sym) {
				edgeCls = append(edgeCls, int32(c))
			}
		}
		clsAt[j+1] = len(edgeCls)
	}
	words := (n.States + 63) / 64
	accept := NewSymSet(n.States)
	for q, a := range n.Accept {
		if a {
			accept.Add(q)
		}
	}
	d := &DFA{Alphabet: n.Alphabet}
	var trans []int // DFA state i's successor on class c is trans[i*k+c]
	ids := map[string]int{}
	var sets []uint64 // DFA state i's NFA subset is sets[i*words : (i+1)*words]
	key := make([]byte, 8*words)
	newState := func(set []uint64) int {
		// Subsets are keyed by their fixed-width bitset bytes.
		for i, w := range set {
			binary.LittleEndian.PutUint64(key[8*i:], w)
		}
		if id, ok := ids[string(key)]; ok {
			return id
		}
		id := d.States
		d.States++
		ids[string(key)] = id
		sets = append(sets, set...)
		acc := false
		for i, w := range set {
			if w&accept[i] != 0 {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		return id
	}
	// The epsilon closure of a subset is the union of its members'
	// closures, so each state's closure is computed once, on first use.
	var stack []int
	closAt := make([]int32, n.States) // state → 1 + offset of its closure in clos; 0 until computed
	var clos []uint64
	closure := func(q int) []uint64 {
		if at := closAt[q]; at > 0 {
			return clos[at-1 : int(at-1)+words]
		}
		at := len(clos)
		clos = append(clos, make([]uint64, words)...)
		set := SymSet(clos[at : at+words])
		set.Add(q)
		stack = n.closure(set, stack)
		closAt[q] = int32(at + 1)
		return set
	}
	d.Start = newState(closure(n.Start))
	next := make([]uint64, k*words) // class c's successor subset is next[c*words : (c+1)*words]
	for work := 0; work < d.States; work++ {
		clear(next)
		set := SymSet(sets[work*words : (work+1)*words])
		for j := range n.Edges {
			if !set.Has(n.Edges[j].From) {
				continue
			}
			to := closure(n.Edges[j].To)
			for _, c := range edgeCls[clsAt[j]:clsAt[j+1]] {
				dst := next[int(c)*words : (int(c)+1)*words]
				for x, cw := range to {
					dst[x] |= cw
				}
			}
		}
		for c := 0; c < k; c++ {
			trans = append(trans, newState(next[c*words:(c+1)*words]))
		}
	}
	d.Trans = cls.expand(trans, d.States)
	return d
}

// Complement returns a DFA accepting exactly the strings d rejects.
func (d *DFA) Complement() *DFA {
	out := &DFA{
		Alphabet: d.Alphabet,
		States:   d.States,
		Start:    d.Start,
		Accept:   make([]bool, d.States),
		Trans:    d.Trans,
	}
	for q, a := range d.Accept {
		out.Accept[q] = !a
	}
	return out
}

// Intersect returns the product DFA accepting the intersection of the two
// languages. Both automata must share the same alphabet. Each product
// state does one pair lookup per joint symbol class — symbols whose
// transition columns agree in both operands — visited in order of lowest
// symbol, so states are numbered as a per-symbol construction would.
func (d *DFA) Intersect(o *DFA) *DFA {
	if d.Alphabet != o.Alphabet {
		panic("regex: intersecting DFAs over different alphabets")
	}
	size := d.Alphabet.Size()
	cls := newSymClasses(size)
	for _, row := range d.Trans {
		cls.refineRow(row, d.States)
	}
	for _, row := range o.Trans {
		cls.refineRow(row, o.States)
	}
	type pair struct{ a, b int }
	ids := map[pair]int{}
	var pairs []pair
	out := &DFA{Alphabet: d.Alphabet}
	var trans []int // product state i's successor on class c is trans[i*k+c]
	newState := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.States
		out.States++
		ids[p] = id
		pairs = append(pairs, p)
		out.Accept = append(out.Accept, d.Accept[p.a] && o.Accept[p.b])
		return id
	}
	out.Start = newState(pair{d.Start, o.Start})
	for work := 0; work < out.States; work++ {
		ra, rb := d.Trans[pairs[work].a], o.Trans[pairs[work].b]
		for _, sym := range cls.rep {
			trans = append(trans, newState(pair{ra[sym], rb[sym]}))
		}
	}
	out.Trans = cls.expand(trans, out.States)
	return out
}

// Empty reports whether the DFA accepts no string.
func (d *DFA) Empty() bool {
	seen := make([]bool, d.States)
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accept[q] {
			return false
		}
		for _, to := range d.Trans[q] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return true
}

// Witness returns a shortest accepted string, or nil if the language is
// empty. Useful in error messages ("this refinement admits path X the
// original forbids").
func (d *DFA) Witness() []string {
	type entry struct {
		state  int
		parent int // index into trail, -1 for start
		sym    int
	}
	trail := []entry{{state: d.Start, parent: -1, sym: -1}}
	seen := make([]bool, d.States)
	seen[d.Start] = true
	for i := 0; i < len(trail); i++ {
		e := trail[i]
		if d.Accept[e.state] {
			var rev []int
			for j := i; trail[j].parent != -1; j = trail[j].parent {
				rev = append(rev, trail[j].sym)
			}
			out := make([]string, len(rev))
			for k := range rev {
				out[k] = d.Alphabet.Name(rev[len(rev)-1-k])
			}
			return out
		}
		for sym := 0; sym < d.Alphabet.Size(); sym++ {
			to := d.Trans[e.state][sym]
			if !seen[to] {
				seen[to] = true
				trail = append(trail, entry{state: to, parent: i, sym: sym})
			}
		}
	}
	return nil
}

// Minimize returns an equivalent DFA with the minimum number of states,
// using Hopcroft's partition-refinement algorithm. Refinement runs on one
// representative symbol per distinct transition column of the reachable
// states — symbols with equal columns always split blocks alike — and
// visits the blocks a splitter cuts in ascending-state first-touch order,
// so the block (state) numbering is a function of the input alone.
func (d *DFA) Minimize() *DFA {
	size := d.Alphabet.Size()
	// Restrict to reachable states first.
	reach := make([]int, d.States)
	for i := range reach {
		reach[i] = -1
	}
	order := []int{d.Start}
	reach[d.Start] = 0
	for i := 0; i < len(order); i++ {
		for _, to := range d.Trans[order[i]] {
			if reach[to] < 0 {
				reach[to] = len(order)
				order = append(order, to)
			}
		}
	}
	n := len(order)
	cls := newSymClasses(size)
	for _, q := range order {
		cls.refineRow(d.Trans[q], d.States)
	}
	k := len(cls.rep)
	// succ(q, c) is the renumbered successor of state q on class c.
	succ := func(q, c int) int { return reach[d.Trans[order[q]][cls.rep[c]]] }
	// Reverse transitions per class, CSR-style: class c owns
	// revOff[c*(n+1) : (c+1)*(n+1)] and revList[c*n : (c+1)*n], and the
	// predecessors of state q on class c are its revList span between
	// offsets q and q+1, in ascending order.
	revOff := make([]int32, k*(n+1))
	revList := make([]int32, k*n)
	var pos []int32
	for c := 0; c < k; c++ {
		off := revOff[c*(n+1) : (c+1)*(n+1)]
		for q := 0; q < n; q++ {
			off[succ(q, c)+1]++
		}
		for q := 0; q < n; q++ {
			off[q+1] += off[q]
		}
		fill := revList[c*n : (c+1)*n]
		pos = append(pos[:0], off[:n]...)
		for q := 0; q < n; q++ {
			to := succ(q, c)
			fill[pos[to]] = int32(q)
			pos[to]++
		}
	}
	// Initial partition: accepting vs non-accepting.
	part := make([]int, n) // state -> block id
	var blocks [][]int
	var accBlock, rejBlock []int
	for q := 0; q < n; q++ {
		if d.Accept[order[q]] {
			accBlock = append(accBlock, q)
		} else {
			rejBlock = append(rejBlock, q)
		}
	}
	addBlock := func(states []int) int {
		id := len(blocks)
		blocks = append(blocks, states)
		for _, q := range states {
			part[q] = id
		}
		return id
	}
	inWork := make([]bool, n) // blocks never outnumber states
	var worklist []int
	for _, states := range [][]int{accBlock, rejBlock} {
		if len(states) > 0 {
			b := addBlock(states)
			worklist = append(worklist, b)
			inWork[b] = true
		}
	}
	inX := make([]bool, n)
	hits := make([]int, n)   // per block: states of X in it, 0 between splits
	firstX := make([]int, n) // per block: its lowest state in X
	var splitter, xs, affected []int
	for len(worklist) > 0 {
		a := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		inWork[a] = false
		splitter = append(splitter[:0], blocks[a]...)
		for c := 0; c < k; c++ {
			// X = states with a class-c transition into block a.
			xs = xs[:0]
			base := c * (n + 1)
			for _, q := range splitter {
				for _, p := range revList[c*n+int(revOff[base+q]) : c*n+int(revOff[base+q+1])] {
					if !inX[p] {
						inX[p] = true
						xs = append(xs, int(p))
					}
				}
			}
			if len(xs) == 0 {
				continue
			}
			// Split every block crossed by X, in ascending-state
			// first-touch order: by each block's lowest state in X.
			affected = affected[:0]
			for _, p := range xs {
				b := part[p]
				if hits[b] == 0 {
					affected = append(affected, b)
					firstX[b] = p
				}
				firstX[b] = min(firstX[b], p)
				hits[b]++
			}
			slices.SortFunc(affected, func(x, y int) int { return firstX[x] - firstX[y] })
			for _, b := range affected {
				rest := len(blocks[b]) - hits[b]
				hits[b] = 0
				if rest == 0 {
					continue
				}
				// Stable in-place split: X's states stay in block b, the
				// rest move to a new block.
				states := blocks[b]
				no := make([]int, 0, rest)
				yes := states[:0]
				for _, q := range states {
					if inX[q] {
						yes = append(yes, q)
					} else {
						no = append(no, q)
					}
				}
				blocks[b] = yes
				newID := addBlock(no)
				if inWork[b] {
					worklist = append(worklist, newID)
					inWork[newID] = true
				} else {
					// add the smaller half
					if len(yes) <= len(no) {
						worklist = append(worklist, b)
						inWork[b] = true
					} else {
						worklist = append(worklist, newID)
						inWork[newID] = true
					}
				}
			}
			for _, p := range xs {
				inX[p] = false
			}
		}
	}
	// Build the quotient automaton.
	out := &DFA{
		Alphabet: d.Alphabet,
		States:   len(blocks),
		Start:    part[0], // state 0 is the renumbered start
		Accept:   make([]bool, len(blocks)),
	}
	trans := make([]int, 0, len(blocks)*k)
	for b, states := range blocks {
		q := states[0]
		out.Accept[b] = d.Accept[order[q]]
		for c := 0; c < k; c++ {
			trans = append(trans, part[succ(q, c)])
		}
	}
	out.Trans = cls.expand(trans, len(blocks))
	return out
}

// EpsFree converts the DFA into the epsilon-free NFA form the
// logical-topology construction consumes, trimming states that cannot
// reach an accepting state (the dead state of the completion). Function
// tags are absent — determinization discards them; callers recover tags
// against the original NFA with the tag-recovery simulation.
func (d *DFA) EpsFree() *EpsFree {
	// Co-reachability: which states reach an accepting state?
	size := d.Alphabet.Size()
	rev := make([][]int, d.States)
	for q := 0; q < d.States; q++ {
		for sym := 0; sym < size; sym++ {
			to := d.Trans[q][sym]
			rev[to] = append(rev[to], q)
		}
	}
	live := make([]bool, d.States)
	var stack []int
	for q, acc := range d.Accept {
		if acc {
			live[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	// Renumber live states (keep the start state even if dead so the
	// automaton stays well-formed for empty languages).
	id := make([]int, d.States)
	for i := range id {
		id[i] = -1
	}
	count := 0
	for q := 0; q < d.States; q++ {
		if live[q] || q == d.Start {
			id[q] = count
			count++
		}
	}
	ef := &EpsFree{
		Alphabet: d.Alphabet,
		States:   count,
		Start:    id[d.Start],
		Accept:   make([]bool, count),
		Out:      make([][]Edge, count),
	}
	for q := 0; q < d.States; q++ {
		if id[q] < 0 {
			continue
		}
		ef.Accept[id[q]] = d.Accept[q]
		// Group transitions by live target into symbol sets.
		byTarget := make(map[int]SymSet)
		for sym := 0; sym < size; sym++ {
			to := d.Trans[q][sym]
			if id[to] < 0 {
				continue
			}
			set, ok := byTarget[to]
			if !ok {
				set = NewSymSet(size)
				byTarget[to] = set
			}
			set.Add(sym)
		}
		targets := make([]int, 0, len(byTarget))
		for to := range byTarget {
			targets = append(targets, to)
		}
		sort.Ints(targets)
		for _, to := range targets {
			ef.Out[id[q]] = append(ef.Out[id[q]], Edge{From: id[q], Set: byTarget[to], To: id[to]})
		}
	}
	return ef
}

// HasTags reports whether the expression contains function groups whose
// placements must be recovered after routing.
func HasTags(e Expr) bool {
	switch x := e.(type) {
	case Group:
		return x.Tag != ""
	case Concat:
		return HasTags(x.L) || HasTags(x.R)
	case Alt:
		return HasTags(x.L) || HasTags(x.R)
	case Star:
		return HasTags(x.X)
	case Not:
		return HasTags(x.X)
	default:
		return false
	}
}

// Matches reports whether the sequence of location names is accepted.
func (d *DFA) Matches(path []string) bool {
	q := d.Start
	for _, name := range path {
		sym := d.Alphabet.Symbol(name)
		if sym < 0 {
			return false
		}
		q = d.Trans[q][sym]
	}
	return d.Accept[q]
}

// Options configure the inclusion decision procedure.
type Options struct {
	// Minimize runs Hopcroft minimization on both operands before the
	// product construction. Smaller products, but extra up-front cost.
	Minimize bool
}

// Includes reports whether L(a) ⊆ L(b), given two expressions over a shared
// location vocabulary. This is the verification primitive negotiators use
// to check that a refined path constraint stays within the original (§4.2).
// The optional witness names a path in L(a)\L(b) when inclusion fails.
func Includes(a, b Expr, opts Options) (bool, []string, error) {
	alpha := NewAlphabet(nil)
	for _, s := range Symbols(a) {
		alpha.Intern(s)
	}
	for _, s := range Symbols(b) {
		alpha.Intern(s)
	}
	// A fresh symbol stands in for "every location neither side mentions":
	// "." must be able to match locations outside both vocabularies, or
	// inclusions like "log ⊆ .*" would hold vacuously for the wrong reason
	// while ". ⊆ log|dpi" would wrongly hold.
	alpha.Intern("\x00other")
	na, err := Compile(a, alpha)
	if err != nil {
		return false, nil, err
	}
	nb, err := Compile(b, alpha)
	if err != nil {
		return false, nil, err
	}
	da, db := na.Determinize(), nb.Determinize()
	if opts.Minimize {
		da, db = da.Minimize(), db.Minimize()
	}
	diff := da.Intersect(db.Complement())
	if diff.Empty() {
		return true, nil, nil
	}
	return false, diff.Witness(), nil
}

// Equivalent reports whether the two expressions denote the same language.
func Equivalent(a, b Expr) (bool, error) {
	ab, _, err := Includes(a, b, Options{})
	if err != nil || !ab {
		return false, err
	}
	ba, _, err := Includes(b, a, Options{})
	return ab && ba, err
}

// EmptyLanguage reports whether e denotes the empty language over the
// vocabulary it mentions (plus the implicit "other" symbol).
func EmptyLanguage(e Expr) (bool, error) {
	alpha := NewAlphabet(Symbols(e))
	alpha.Intern("\x00other")
	n, err := Compile(e, alpha)
	if err != nil {
		return false, err
	}
	return n.Determinize().Empty(), nil
}
