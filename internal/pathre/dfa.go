package pathre

import "fmt"

// dfaMaxStates bounds CompileDFA's subset construction. The
// translator's path patterns determinize to a handful of states; a
// pattern that blows past the bound gets an error (never a truncated
// automaton) and the caller falls back to the NFA simulation.
const dfaMaxStates = 4096

// DFA is a dense, fully materialized byte-class DFA for one compiled
// pattern. Matching is a flat table walk with zero allocations — the
// batch-friendly replacement for the NFA simulation, which allocates
// two state sets per call. State 0 is the universal-accept sink
// (same convention as the lazy determinizer behind Equivalent): a
// match reachable mid-string makes every extension accepted under the
// engine's unanchored semantics, so reaching state 0 decides the
// match without consuming the rest of the input.
type DFA struct {
	pattern string
	nclass  int
	classOf [256]uint16
	// trans is the row-major transition table, indexed
	// trans[state*nclass + classOf[b]].
	trans  []int32
	accept []bool // end-of-input acceptance per state
	start  int32
}

// Pattern returns the source pattern the DFA was compiled from.
func (d *DFA) Pattern() string { return d.pattern }

// States returns the number of DFA states, including the sink.
func (d *DFA) States() int { return len(d.accept) }

// CompileDFA determinizes a compiled pattern into a dense byte-class
// DFA accepting the same language under this package's matching
// semantics (POSIX-style unanchored substring matching). It
// materializes the same lazy subset construction that backs
// Equivalent; VerifyDFA proves the resulting table equivalent to the
// NFA it replaces.
func CompileDFA(re *Regexp) (*DFA, error) {
	d := &DFA{pattern: re.pattern}
	reps := d.partition(re.prog)
	ld := newDFA(re.prog, re.start)
	s0, err := ld.stateFor(ld.initialSeeds(), true)
	if err != nil {
		return nil, err
	}
	// Dense id 0 is the sink in both views (newDFA pins it there);
	// every other lazy state gets a dense id in discovery order.
	dense := map[int]int32{0: 0}
	order := []int{0}
	idOf := func(lazy int) (int32, error) {
		if id, ok := dense[lazy]; ok {
			return id, nil
		}
		if len(order) >= dfaMaxStates {
			return 0, fmt.Errorf("pathre: DFA for %q exceeded %d states", re.pattern, dfaMaxStates)
		}
		id := int32(len(order))
		dense[lazy] = id
		order = append(order, lazy)
		return id, nil
	}
	if d.start, err = idOf(s0); err != nil {
		return nil, err
	}
	for i := 0; i < len(order); i++ {
		lazy := order[i]
		d.accept = append(d.accept, ld.states[lazy].accept)
		for c := 0; c < d.nclass; c++ {
			if lazy == 0 {
				d.trans = append(d.trans, 0) // the sink absorbs
				continue
			}
			next, err := ld.step(lazy, reps[c])
			if err != nil {
				return nil, err
			}
			id, err := idOf(next)
			if err != nil {
				return nil, err
			}
			d.trans = append(d.trans, id)
		}
	}
	return d, nil
}

// partition groups the byte alphabet by the consuming instructions'
// match signatures (the equivalence byteClasses computes for the
// product walk), filling classOf and returning one representative
// byte per class.
func (d *DFA) partition(prog []inst) []byte {
	type m struct {
		op    opcode
		c     byte
		class *class
	}
	var ms []m
	for _, in := range prog {
		switch in.op {
		case opChar, opClass:
			ms = append(ms, m{op: in.op, c: in.c, class: in.class})
		}
	}
	index := map[string]uint16{}
	var reps []byte
	sig := make([]byte, len(ms))
	for b := 0; b < 256; b++ {
		c := byte(b)
		for i, mm := range ms {
			hit := false
			if mm.op == opChar {
				hit = mm.c == c
			} else {
				hit = mm.class.matches(c)
			}
			if hit {
				sig[i] = '1'
			} else {
				sig[i] = '0'
			}
		}
		id, ok := index[string(sig)]
		if !ok {
			id = uint16(len(reps))
			index[string(sig)] = id
			reps = append(reps, c)
		}
		d.classOf[b] = id
	}
	d.nclass = len(reps)
	return reps
}

// MatchString reports whether the pattern matches s. It agrees
// byte-for-byte with the NFA's MatchString; VerifyDFA proves it.
func (d *DFA) MatchString(s string) bool {
	st := d.start
	if st == 0 {
		return true
	}
	nc := d.nclass
	for i := 0; i < len(s); i++ {
		st = d.trans[int(st)*nc+int(d.classOf[s[i]])]
		if st == 0 {
			return true
		}
	}
	return d.accept[st]
}

// VerifyDFA proves a compiled DFA equivalent to the NFA it was built
// from, with the same lazy determinization that backs Equivalent: a
// lockstep product walk over every byte (all 256, not just class
// representatives, so the byte-class table itself is inside the
// proof) asserting acceptance agreement at every reachable product
// state. A disagreement is reported with a witness string.
func VerifyDFA(re *Regexp, d *DFA) error {
	ld := newDFA(re.prog, re.start)
	ls, err := ld.stateFor(ld.initialSeeds(), true)
	if err != nil {
		return err
	}
	type pair struct {
		l int
		d int32
	}
	type visit struct {
		st     pair
		parent int
		via    byte
	}
	witness := func(trail []visit, i int) string {
		var bs []byte
		for ; trail[i].parent >= 0; i = trail[i].parent {
			bs = append(bs, trail[i].via)
		}
		for l, r := 0, len(bs)-1; l < r; l, r = l+1, r-1 {
			bs[l], bs[r] = bs[r], bs[l]
		}
		return string(bs)
	}
	trail := []visit{{st: pair{l: ls, d: d.start}, parent: -1}}
	seen := map[pair]bool{trail[0].st: true}
	for i := 0; i < len(trail); i++ {
		cur := trail[i].st
		la := ld.states[cur.l].accept
		da := cur.d == 0 || d.accept[cur.d]
		if la != da {
			return fmt.Errorf("pathre: DFA for %q disagrees with NFA on %q", re.pattern, witness(trail, i))
		}
		for c := 0; c < 256; c++ {
			nl := 0
			if cur.l != 0 {
				if nl, err = ld.step(cur.l, byte(c)); err != nil {
					return err
				}
			}
			var nd int32
			if cur.d != 0 {
				nd = d.trans[int(cur.d)*d.nclass+int(d.classOf[c])]
			}
			np := pair{l: nl, d: nd}
			if seen[np] {
				continue
			}
			if len(seen) > equivMaxStates {
				return fmt.Errorf("pathre: DFA verification for %q exceeded %d product states", re.pattern, equivMaxStates)
			}
			seen[np] = true
			trail = append(trail, visit{st: np, parent: i, via: byte(c)})
		}
	}
	return nil
}
