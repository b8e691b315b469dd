package regex

// symClasses partitions an alphabet's symbols into classes no transition
// of an automaton distinguishes: two symbols share a class exactly when
// every NFA edge set contains both or neither (refineSet), or every DFA
// row sends both to the same state (refineRow). Symbols of one class
// always lead to the same successor, so the automata kernels step once
// per class and copy the result into every symbol of it — a path
// expression over a few dozen locations on a topology of hundreds steps a
// few dozen times per state, not hundreds.
type symClasses struct {
	of  []int32 // symbol → class
	rep []int   // class → its lowest symbol; ascending, so classes are ordered by first symbol

	// slot maps (old class, label) to the new class during one refinement
	// pass; every entry is -1 between passes. used lists the set entries.
	slot  []int32
	used  []int
	width int
}

// newSymClasses returns the one-class partition of size symbols.
func newSymClasses(size int) *symClasses {
	c := &symClasses{of: make([]int32, size)}
	if size > 0 {
		c.rep = []int{0}
	}
	return c
}

// refineSet splits every class by membership in set.
func (c *symClasses) refineSet(set SymSet) {
	if !c.begin(2) {
		return
	}
	for s := range c.of {
		label := 0
		if set.Has(s) {
			label = 1
		}
		c.assign(s, label)
	}
	c.end()
}

// refineRow splits every class by the DFA successor row assigns it; row
// entries are states in [0, states).
func (c *symClasses) refineRow(row []int, states int) {
	if !c.begin(states) {
		return
	}
	for s := range c.of {
		c.assign(s, row[s])
	}
	c.end()
}

// begin prepares a pass over labels in [0, width). It reports false when
// every symbol is already alone in its class, so the pass cannot split
// anything.
func (c *symClasses) begin(width int) bool {
	if len(c.rep) == len(c.of) {
		return false
	}
	if need := len(c.rep) * width; need > len(c.slot) {
		old := len(c.slot)
		c.slot = append(c.slot, make([]int32, need-old)...)
		for i := old; i < need; i++ {
			c.slot[i] = -1
		}
	}
	c.rep = c.rep[:0]
	c.width = width
	return true
}

// assign moves symbol s into the new class of (its old class, label),
// numbering new classes in order of first symbol. Every symbol is read
// once before it is overwritten, so the old numbering stays readable for
// the rest of the pass.
func (c *symClasses) assign(s, label int) {
	key := int(c.of[s])*c.width + label
	id := c.slot[key]
	if id < 0 {
		id = int32(len(c.rep))
		c.slot[key] = id
		c.used = append(c.used, key)
		c.rep = append(c.rep, s)
	}
	c.of[s] = id
}

// end resets the slots the pass used.
func (c *symClasses) end() {
	for _, key := range c.used {
		c.slot[key] = -1
	}
	c.used = c.used[:0]
}

// expand materializes per-symbol transition rows from per-class ones:
// state q's successor on symbol s is trans[q*k+of[s]], k classes. The
// rows share one backing array.
func (c *symClasses) expand(trans []int, states int) [][]int {
	size, k := len(c.of), len(c.rep)
	flat := make([]int, states*size)
	rows := make([][]int, states)
	for q := range rows {
		row := flat[q*size : (q+1)*size : (q+1)*size]
		for s, cl := range c.of {
			row[s] = trans[q*k+int(cl)]
		}
		rows[q] = row
	}
	return rows
}
