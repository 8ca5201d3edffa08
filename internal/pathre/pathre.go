// Package pathre implements the regular-expression matcher behind the
// engine's REGEXP_LIKE function — the role Oracle's POSIX ERE matcher
// plays in the paper. The PPF translator emits patterns over
// root-to-node path strings built from anchors, literals, '.',
// bracket classes, grouping, alternation and the *, + and ?
// quantifiers; this package compiles that ERE subset into a Thompson
// NFA and matches in time linear in the input.
//
// Following POSIX ERE (and Oracle REGEXP_LIKE) semantics, an
// unanchored pattern matches if it matches any substring of the
// input.
package pathre

import (
	"fmt"
	"strings"
)

// Regexp is a compiled pattern. It is safe for concurrent use: the
// only mutable state is allocated per Match call.
type Regexp struct {
	prog    []inst
	start   int
	pattern string
	// literal fast path: if non-nil, the pattern is a pure anchored
	// literal '^lit$' and matching is a string comparison.
	literal *string
	// prefix/suffix fast path for patterns of the form '^lit1.*lit2$'.
	prefix, suffix *string
}

type opcode uint8

const (
	opChar  opcode = iota // match one specific byte
	opAny                 // match any byte
	opClass               // match a byte against a class
	opSplit               // fork to x and y
	opJmp                 // jump to x
	opBOL                 // assert beginning of input
	opEOL                 // assert end of input
	opMatch               // accept
)

type inst struct {
	op    opcode
	c     byte
	class *class
	x, y  int
}

type class struct {
	negated bool
	bitmap  [256 / 8]byte
}

func (c *class) add(b byte) { c.bitmap[b/8] |= 1 << (b % 8) }
func (c *class) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.add(byte(b))
	}
}
func (c *class) matches(b byte) bool {
	in := c.bitmap[b/8]&(1<<(b%8)) != 0
	return in != c.negated
}

// Compile parses and compiles an ERE-subset pattern.
func Compile(pattern string) (*Regexp, error) {
	p := &parser{src: pattern}
	frag, err := p.parseAlt()
	if err != nil {
		return nil, fmt.Errorf("pathre: compile %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("pathre: compile %q: unexpected %q at offset %d", pattern, p.src[p.pos], p.pos)
	}
	prog := p.prog
	prog = append(prog, inst{op: opMatch})
	patch(prog, frag.out, len(prog)-1)
	re := &Regexp{prog: prog, start: frag.start, pattern: pattern}
	re.analyze()
	return re, nil
}

// MustCompile is Compile that panics on error, for statically known
// patterns.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// String returns the source pattern.
func (re *Regexp) String() string { return re.pattern }

// HasLiteralPath reports whether MatchString short-circuits through
// the literal or prefix/suffix fast path without running the
// automaton. Callers choosing between the NFA simulation and a
// compiled DFA can skip DFA construction for these: a string
// comparison already beats a table walk.
func (re *Regexp) HasLiteralPath() bool { return re.literal != nil || re.prefix != nil }

// analyze detects the literal and prefix/suffix fast paths that cover
// the vast majority of patterns the translator emits (exact paths and
// '^.*/name$' suffix filters).
func (re *Regexp) analyze() {
	s := re.pattern
	if len(s) < 2 || s[0] != '^' || s[len(s)-1] != '$' {
		return
	}
	// Interior '^'/'$' are zero-width assertions, not literal bytes, so
	// their presence disqualifies the fast paths too.
	const meta = `.[]()*+?|\{}^$`
	body := s[1 : len(s)-1]
	if !strings.ContainsAny(body, meta) {
		re.literal = &body
		return
	}
	// '^prefix.*suffix$' with literal prefix/suffix.
	if i := strings.Index(body, ".*"); i >= 0 {
		pre, suf := body[:i], body[i+2:]
		if !strings.ContainsAny(pre, meta) && !strings.ContainsAny(suf, meta) {
			re.prefix, re.suffix = &pre, &suf
		}
	}
}

// MatchString reports whether the pattern matches s (as a substring,
// per POSIX ERE semantics; use ^ and $ to anchor).
func (re *Regexp) MatchString(s string) bool {
	if re.literal != nil {
		return s == *re.literal
	}
	if re.prefix != nil {
		return len(s) >= len(*re.prefix)+len(*re.suffix) &&
			strings.HasPrefix(s, *re.prefix) && strings.HasSuffix(s, *re.suffix)
	}
	return re.match(s)
}

// match runs the Thompson NFA simulation. Because unanchored patterns
// must match at any start offset, the start state is (re-)added at
// every input position.
func (re *Regexp) match(s string) bool {
	n := len(re.prog)
	cur := newStateSet(n)
	next := newStateSet(n)
	addThread(re.prog, cur, re.start, 0, len(s))
	if containsMatch(re.prog, cur) {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		next.clear()
		for _, pc := range cur.list {
			in := &re.prog[pc]
			ok := false
			switch in.op {
			case opChar:
				ok = in.c == c
			case opAny:
				ok = true
			case opClass:
				ok = in.class.matches(c)
			}
			if ok {
				addThread(re.prog, next, in.x, i+1, len(s))
			}
		}
		// Re-seed the start state for unanchored matching.
		addThread(re.prog, next, re.start, i+1, len(s))
		cur, next = next, cur
		if containsMatch(re.prog, cur) {
			return true
		}
	}
	return false
}

type stateSet struct {
	mark []uint32
	gen  uint32
	list []int
}

func newStateSet(n int) *stateSet {
	return &stateSet{mark: make([]uint32, n), gen: 1}
}

func (s *stateSet) clear() {
	s.gen++
	s.list = s.list[:0]
}

func (s *stateSet) add(pc int) bool {
	if s.mark[pc] == s.gen {
		return false
	}
	s.mark[pc] = s.gen
	s.list = append(s.list, pc)
	return true
}

// addThread adds pc and follows epsilon transitions (split, jmp,
// anchors) eagerly, so the run loop only sees consuming instructions
// and opMatch.
func addThread(prog []inst, set *stateSet, pc, pos, n int) {
	if !set.add(pc) {
		return
	}
	switch in := &prog[pc]; in.op {
	case opJmp:
		addThread(prog, set, in.x, pos, n)
	case opSplit:
		addThread(prog, set, in.x, pos, n)
		addThread(prog, set, in.y, pos, n)
	case opBOL:
		if pos == 0 {
			addThread(prog, set, in.x, pos, n)
		}
	case opEOL:
		if pos == n {
			addThread(prog, set, in.x, pos, n)
		}
	}
}

func containsMatch(prog []inst, set *stateSet) bool {
	for _, pc := range set.list {
		if prog[pc].op == opMatch {
			return true
		}
	}
	return false
}

// --- parser ---

// frag is a program fragment: its entry point and the list of
// instruction "out" slots still to be patched.
type frag struct {
	start int
	out   []patchSlot
}

type patchSlot struct {
	pc int
	y  bool // patch inst.y instead of inst.x
}

func patch(prog []inst, slots []patchSlot, target int) {
	for _, s := range slots {
		if s.y {
			prog[s.pc].y = target
		} else {
			prog[s.pc].x = target
		}
	}
}

type parser struct {
	src  string
	pos  int
	prog []inst
}

func (p *parser) emit(in inst) int {
	p.prog = append(p.prog, in)
	return len(p.prog) - 1
}

func (p *parser) peek() (byte, bool) {
	if p.pos < len(p.src) {
		return p.src[p.pos], true
	}
	return 0, false
}

// parseAlt = parseConcat ('|' parseConcat)*
func (p *parser) parseAlt() (frag, error) {
	left, err := p.parseConcat()
	if err != nil {
		return frag{}, err
	}
	for {
		c, ok := p.peek()
		if !ok || c != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return frag{}, err
		}
		pc := p.emit(inst{op: opSplit, x: left.start, y: right.start})
		left = frag{start: pc, out: append(left.out, right.out...)}
	}
}

// parseConcat = parseRepeat*
func (p *parser) parseConcat() (frag, error) {
	var cur *frag
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		next, err := p.parseRepeat()
		if err != nil {
			return frag{}, err
		}
		if cur == nil {
			cur = &next
		} else {
			patch(p.prog, cur.out, next.start)
			cur = &frag{start: cur.start, out: next.out}
		}
	}
	if cur == nil {
		// Empty expression: a jump with a dangling out.
		pc := p.emit(inst{op: opJmp})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	}
	return *cur, nil
}

// parseRepeat = parseAtom ('*' | '+' | '?')?
func (p *parser) parseRepeat() (frag, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return frag{}, err
	}
	c, ok := p.peek()
	if !ok {
		return atom, nil
	}
	switch c {
	case '*':
		p.pos++
		pc := p.emit(inst{op: opSplit, x: atom.start})
		patch(p.prog, atom.out, pc)
		return frag{start: pc, out: []patchSlot{{pc: pc, y: true}}}, nil
	case '+':
		p.pos++
		pc := p.emit(inst{op: opSplit, x: atom.start})
		patch(p.prog, atom.out, pc)
		return frag{start: atom.start, out: []patchSlot{{pc: pc, y: true}}}, nil
	case '?':
		p.pos++
		pc := p.emit(inst{op: opSplit, x: atom.start})
		return frag{start: pc, out: append(atom.out, patchSlot{pc: pc, y: true})}, nil
	}
	return atom, nil
}

// parseAtom = literal | '.' | class | '(' parseAlt ')' | '^' | '$' | '\' escaped
func (p *parser) parseAtom() (frag, error) {
	c, ok := p.peek()
	if !ok {
		return frag{}, fmt.Errorf("unexpected end of pattern")
	}
	switch c {
	case '(':
		p.pos++
		inner, err := p.parseAlt()
		if err != nil {
			return frag{}, err
		}
		if c, ok := p.peek(); !ok || c != ')' {
			return frag{}, fmt.Errorf("missing ')'")
		}
		p.pos++
		return inner, nil
	case '.':
		p.pos++
		pc := p.emit(inst{op: opAny})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	case '[':
		return p.parseClass()
	case '^':
		p.pos++
		pc := p.emit(inst{op: opBOL})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	case '$':
		p.pos++
		pc := p.emit(inst{op: opEOL})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	case '\\':
		p.pos++
		e, ok := p.peek()
		if !ok {
			return frag{}, fmt.Errorf("trailing backslash")
		}
		if err := literalEscape(e); err != nil {
			return frag{}, err
		}
		p.pos++
		pc := p.emit(inst{op: opChar, c: e})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	case '*', '+', '?':
		return frag{}, fmt.Errorf("quantifier %q with nothing to repeat", c)
	case ')':
		return frag{}, fmt.Errorf("unmatched ')'")
	default:
		p.pos++
		pc := p.emit(inst{op: opChar, c: c})
		return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
	}
}

// literalEscape rejects a backslash before a letter or digit. The
// subset escapes punctuation only, to a literal byte; after a letter or
// digit POSIX ERE leaves the escape undefined and RE2 gives it a meaning
// (\d, \w, \b, octal \0), so the pattern is not one of this subset's.
func literalEscape(e byte) error {
	if 'a' <= e && e <= 'z' || 'A' <= e && e <= 'Z' || '0' <= e && e <= '9' {
		return fmt.Errorf("unsupported escape \\%c", e)
	}
	return nil
}

func (p *parser) parseClass() (frag, error) {
	p.pos++ // consume '['
	cl := &class{}
	if c, ok := p.peek(); ok && c == '^' {
		cl.negated = true
		p.pos++
	}
	first := true
	for {
		c, ok := p.peek()
		if !ok {
			return frag{}, fmt.Errorf("missing ']'")
		}
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		if c == '\\' {
			p.pos++
			if c, ok = p.peek(); !ok {
				return frag{}, fmt.Errorf("trailing backslash in class")
			}
			if err := literalEscape(c); err != nil {
				return frag{}, err
			}
		}
		p.pos++
		// Range a-z?
		if n, ok := p.peek(); ok && n == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, _ := p.peek()
			if hi == '\\' {
				p.pos++
				hi, _ = p.peek()
				if err := literalEscape(hi); err != nil {
					return frag{}, err
				}
			}
			p.pos++
			if hi < c {
				return frag{}, fmt.Errorf("invalid class range %q-%q", c, hi)
			}
			cl.addRange(c, hi)
		} else {
			cl.add(c)
		}
	}
	pc := p.emit(inst{op: opClass, class: cl})
	return frag{start: pc, out: []patchSlot{{pc: pc}}}, nil
}
