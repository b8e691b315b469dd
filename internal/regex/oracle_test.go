package regex

import (
	"fmt"
	"sort"
	"strings"
)

// The per-symbol automata kernels the symbol-class kernels replaced, kept
// as differential oracles: the production kernels must return DFAs
// reflect.DeepEqual to these on every input.

// oracleDeterminize is the per-symbol subset construction: one move and
// epsilon closure per (DFA state, symbol), subsets keyed by their rendered
// member lists.
func oracleDeterminize(n *NFA) *DFA {
	size := n.Alphabet.Size()
	outByState := make([][]Edge, n.States)
	for _, e := range n.Edges {
		outByState[e.From] = append(outByState[e.From], e)
	}
	key := func(set []bool) string {
		var sb strings.Builder
		for q, in := range set {
			if in {
				fmt.Fprintf(&sb, "%d,", q)
			}
		}
		return sb.String()
	}
	start := make([]bool, n.States)
	start[n.Start] = true
	oracleClosure(n, start)

	d := &DFA{Alphabet: n.Alphabet}
	ids := map[string]int{}
	var sets [][]bool
	newState := func(set []bool) int {
		k := key(set)
		if id, ok := ids[k]; ok {
			return id
		}
		id := d.States
		d.States++
		ids[k] = id
		sets = append(sets, set)
		acc := false
		for q, in := range set {
			if in && n.Accept[q] {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		d.Trans = append(d.Trans, make([]int, size))
		return id
	}
	d.Start = newState(start)
	for work := 0; work < d.States; work++ {
		set := sets[work]
		for sym := 0; sym < size; sym++ {
			next := make([]bool, n.States)
			any := false
			for q, in := range set {
				if !in {
					continue
				}
				for _, e := range outByState[q] {
					if e.Set.Has(sym) {
						next[e.To] = true
						any = true
					}
				}
			}
			if any {
				oracleClosure(n, next)
			}
			d.Trans[work][sym] = newState(next)
		}
	}
	return d
}

// oracleClosure expands set to its epsilon closure in place.
func oracleClosure(n *NFA, set []bool) {
	stack := make([]int, 0, n.States)
	for q, in := range set {
		if in {
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range n.Eps[q] {
			if !set[r] {
				set[r] = true
				stack = append(stack, r)
			}
		}
	}
}

// oracleIntersect is the per-symbol product construction: one pair lookup
// per (product state, symbol).
func oracleIntersect(d, o *DFA) *DFA {
	size := d.Alphabet.Size()
	type pair struct{ a, b int }
	ids := map[pair]int{}
	var pairs []pair
	out := &DFA{Alphabet: d.Alphabet}
	newState := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.States
		out.States++
		ids[p] = id
		pairs = append(pairs, p)
		out.Accept = append(out.Accept, d.Accept[p.a] && o.Accept[p.b])
		out.Trans = append(out.Trans, make([]int, size))
		return id
	}
	out.Start = newState(pair{d.Start, o.Start})
	for work := 0; work < out.States; work++ {
		p := pairs[work]
		for sym := 0; sym < size; sym++ {
			out.Trans[work][sym] = newState(pair{d.Trans[p.a][sym], o.Trans[p.b][sym]})
		}
	}
	return out
}

// oracleMinimize is per-symbol Hopcroft refinement over map-backed sets.
// Affected blocks are visited in ascending-state first-touch order — the
// order the production kernel fixes; ranging over the affected map, as
// the kernel once did, numbers the blocks differently from run to run.
func oracleMinimize(d *DFA) *DFA {
	size := d.Alphabet.Size()
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
	accept := make([]bool, n)
	trans := make([][]int, n)
	for newID, oldID := range order {
		accept[newID] = d.Accept[oldID]
		row := make([]int, size)
		for sym, to := range d.Trans[oldID] {
			row[sym] = reach[to]
		}
		trans[newID] = row
	}
	rev := make([][][]int, size)
	for sym := 0; sym < size; sym++ {
		rev[sym] = make([][]int, n)
	}
	for q := 0; q < n; q++ {
		for sym := 0; sym < size; sym++ {
			to := trans[q][sym]
			rev[sym][to] = append(rev[sym][to], q)
		}
	}
	part := make([]int, n)
	var blocks [][]int
	var accBlock, rejBlock []int
	for q := 0; q < n; q++ {
		if accept[q] {
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
	var worklist []int
	if len(accBlock) > 0 {
		worklist = append(worklist, addBlock(accBlock))
	}
	if len(rejBlock) > 0 {
		worklist = append(worklist, addBlock(rejBlock))
	}
	inWork := make(map[int]bool)
	for _, b := range worklist {
		inWork[b] = true
	}
	for len(worklist) > 0 {
		a := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		inWork[a] = false
		splitter := append([]int(nil), blocks[a]...)
		for sym := 0; sym < size; sym++ {
			inX := make(map[int]bool)
			for _, q := range splitter {
				for _, p := range rev[sym][q] {
					inX[p] = true
				}
			}
			if len(inX) == 0 {
				continue
			}
			xs := make([]int, 0, len(inX))
			for p := range inX {
				xs = append(xs, p)
			}
			sort.Ints(xs)
			var affected []int
			touched := make(map[int]bool)
			for _, p := range xs {
				if !touched[part[p]] {
					touched[part[p]] = true
					affected = append(affected, part[p])
				}
			}
			for _, b := range affected {
				var yes, no []int
				for _, q := range blocks[b] {
					if inX[q] {
						yes = append(yes, q)
					} else {
						no = append(no, q)
					}
				}
				if len(yes) == 0 || len(no) == 0 {
					continue
				}
				blocks[b] = yes
				newID := addBlock(no)
				if inWork[b] {
					worklist = append(worklist, newID)
					inWork[newID] = true
				} else {
					if len(yes) <= len(no) {
						worklist = append(worklist, b)
						inWork[b] = true
					} else {
						worklist = append(worklist, newID)
						inWork[newID] = true
					}
				}
			}
		}
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		States:   len(blocks),
		Start:    part[0],
		Accept:   make([]bool, len(blocks)),
		Trans:    make([][]int, len(blocks)),
	}
	for b, states := range blocks {
		q := states[0]
		out.Accept[b] = accept[q]
		row := make([]int, size)
		for sym := 0; sym < size; sym++ {
			row[sym] = part[trans[q][sym]]
		}
		out.Trans[b] = row
	}
	return out
}
