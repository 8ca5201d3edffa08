package engine

// The uniform scan-operator contract: every access path pushes the
// candidate row ids of its joinStep under the current bindings, in
// the executor's canonical order, recording probes and governor
// charges against the step's scan OpStats. Ids move in batches of up
// to sc.n (the execution's batch capacity) so the per-row dispatch,
// cancellation, and stat costs are amortized per batch; yield returns
// false to stop early.

// batchYield receives one batch of candidate row ids, never empty,
// in canonical order. The slice is either the enumerator's scratch
// buffer or a zero-copy sub-slice of an index's posting list — valid
// only until yield returns, and never to be mutated. It returns
// false to stop the enumeration early.
type batchYield func(ids []int64) (bool, error)

// forEachBatch dispatches to the concrete access path's enumerate
// method. The executor's row loops call this instead of the
// accessPath interface method so escape analysis can keep their
// yield closures off the heap: an interface call would force a
// heap-allocated closure per join binding, which is measurable on
// the paper's join-heavy Edge queries.
func forEachBatch(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	switch a := s.access.(type) {
	case fullScan:
		return a.enumerate(ec, e, s, st, sc, yield)
	case *indexEq:
		return a.enumerate(ec, e, s, st, sc, yield)
	case *indexPrefixes:
		return a.enumerate(ec, e, s, st, sc, yield)
	case *hashEq:
		return a.enumerate(ec, e, s, st, sc, yield)
	case *fatHash:
		return a.h.enumerate(ec, e, s, st, sc, yield)
	case *keyProbe:
		return a.enumerate(ec, e, s, st, sc, yield)
	case *indexRange:
		return a.enumerate(ec, e, s, st, sc, yield)
	default:
		panic("engine: unknown access path")
	}
}

// flushTail yields the final partial batch, if any.
func flushTail(buf []int64, yield batchYield) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := yield(buf)
	return err
}

// yieldSeg streams a stretch of a run to yield a batch at a time: an
// explicit run's ids in place, without copying, and those of a run that
// is the rows themselves through the scratch's id buffer. It reports
// false when yield stopped the enumeration.
func yieldSeg(s seg, sc *batchScratch, yield batchYield) (bool, error) {
	var buf []int64
	if s.ids == nil {
		buf = sc.idBuf(s.hi - s.lo)
	}
	for s.lo < s.hi {
		n := min(s.hi-s.lo, sc.n)
		var ids []int64
		if s.ids != nil {
			ids = s.ids[s.lo : s.lo+n]
		} else {
			n = min(n, cap(buf))
			ids = seg{lo: s.lo, hi: s.lo + n}.appendTo(buf[:0])
		}
		cont, err := yield(ids)
		if err != nil || !cont {
			return false, err
		}
		s.lo += n
	}
	return true, nil
}

// appendSeg appends a stretch of a run to buf, handing buf to yield
// each time it fills; it returns what is left in buf, or false when
// yield stopped the enumeration.
func appendSeg(s seg, buf []int64, yield batchYield) ([]int64, bool, error) {
	for i := s.lo; i < s.hi; i++ {
		buf = append(buf, s.at(i))
		if len(buf) == cap(buf) {
			cont, err := yield(buf)
			if err != nil || !cont {
				return nil, false, err
			}
			buf = buf[:0]
		}
	}
	return buf, true, nil
}

func (fullScan) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	n := s.st.n
	buf := sc.idBuf(n)
	for id := 0; id < n; id++ {
		buf = append(buf, int64(id))
		if len(buf) == cap(buf) {
			cont, err := yield(buf)
			if err != nil || !cont {
				return err
			}
			buf = buf[:0]
		}
	}
	return flushTail(buf, yield)
}

func (a *indexEq) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	var kv [4]Value
	key := kv[:0]
	for _, kx := range a.keys {
		v, err := kx.eval(ec, e)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		key = append(key, v)
	}
	st.probe()
	_, err := yieldSeg(a.ix.equal(key), sc, yield)
	return err
}

func (a *indexPrefixes) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	v, err := a.x.eval(ec, e)
	if err != nil {
		return err
	}
	if v.Kind != KBytes {
		return nil
	}
	run, has := a.ix, []bool(nil)
	if a.restrict != nil {
		b, err := buildSide(ec, s, st, buildKey{col: a.ix.Cols[0], in: a.restrict.scope(), run: a.ix})
		if err != nil {
			return err
		}
		run, has = b.run.Index, b.run.has
	}
	buf, from := sc.idBuf(sc.n), 0
	for k := 0; k <= len(v.B); k++ {
		if a.restrict != nil && (k >= len(has) || !has[k]) {
			continue // the scoped run holds no value this long
		}
		// Prefix-match within a possibly composite index: the stretch
		// whose first component is exactly this prefix. The prefixes,
		// and with them the stretches, ascend: each search starts where
		// the last one ended.
		p := [1]Value{NewBytes(v.B[:k])}
		st.probe()
		lo := run.search(from, run.len(), p[:], false)
		r := run.run(lo, run.near(lo, p[:], true))
		var cont bool
		if buf, cont, err = appendSeg(r, buf, yield); err != nil || !cont {
			return err
		}
		from = r.hi
	}
	return flushTail(buf, yield)
}

func (a *hashEq) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	v, err := a.key.eval(ec, e)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	key := encodeValue(sc.key[:0], v)
	sc.key = key
	b, err := buildSide(ec, s, st, buildKey{col: a.col, in: a.restrict.scope()})
	if err != nil {
		return err
	}
	st.probe()
	ids := b.hash[string(key)]
	_, err = yieldSeg(seg{ids: ids, hi: len(ids)}, sc, yield)
	return err
}

// buildSide returns the step's build k — a hash join's build side or a
// Dewey step's scoped run — charging a build this call performed to the
// scan's operator.
func buildSide(ec *execCtx, s *joinStep, st *OpStats, k buildKey) (build, error) {
	b, built, bytes, err := s.st.build(k, ec.acct)
	if err == nil && built {
		err = chargeBuild(ec, st, bytes)
	}
	return b, err
}

// chargeBuild charges the bytes of a build a scan performed to its
// operator. The build may have consumed a large slice of the deadline;
// it is observed before the probe phase starts instead of waiting out
// the tick counter.
func chargeBuild(ec *execCtx, st *OpStats, bytes int64) error {
	st.charge(bytes)
	return ec.checkNow()
}

func (a *keyProbe) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	var segs []seg
	if a.merged {
		segs = make([]seg, 0, len(a.res.keys.keys))
	}
	total := 0
	for _, k := range a.res.keys.keys {
		st.probe()
		v := [1]Value{NewInt(k)}
		r := a.ix.equal(v[:])
		if a.merged {
			if r.lo < r.hi {
				segs, total = append(segs, r), total+r.hi-r.lo
			}
			continue
		}
		if cont, err := yieldSeg(r, sc, yield); err != nil || !cont {
			return err
		}
	}
	return yieldMerged(segs, sc.idBuf(total), yield)
}

// yieldMerged streams the union of ascending, pairwise disjoint
// stretches of runs in ascending order (merge).
func yieldMerged(segs []seg, buf []int64, yield batchYield) error {
	for m := newMerge(segs); ; {
		id, ok := m.next()
		if !ok {
			break
		}
		buf = append(buf, id)
		if len(buf) == cap(buf) {
			cont, err := yield(buf)
			if err != nil || !cont {
				return err
			}
			buf = buf[:0]
		}
	}
	return flushTail(buf, yield)
}

// A merge reads the union of ascending, pairwise disjoint stretches of
// runs in ascending order: a binary heap of the stretches ordered by
// their heads, the least head taken each turn. Merged, the posting
// lists of a key set's keys are the rows that hold one, in row order.
type merge []seg

// newMerge heaps segs, which it takes over.
func newMerge(segs []seg) merge {
	for i := len(segs)/2 - 1; i >= 0; i-- {
		siftDown(segs, i)
	}
	return segs
}

// next returns the least row id not yet read, or false when none is
// left.
func (m *merge) next() (int64, bool) {
	s := *m
	if len(s) == 0 {
		return 0, false
	}
	id := s[0].at(s[0].lo)
	if s[0].lo++; s[0].lo == s[0].hi {
		s[0] = s[len(s)-1]
		s = s[:len(s)-1]
	}
	siftDown(s, 0)
	*m = s
	return id, true
}

// siftDown restores the heap order of segs below position i.
func siftDown(segs []seg, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(segs); c++ {
			if segs[c].at(segs[c].lo) < segs[least].at(segs[least].lo) {
				least = c
			}
		}
		if least == i {
			return
		}
		segs[i], segs[least] = segs[least], segs[i]
		i = least
	}
}

func (a *fatHash) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	return a.h.enumerate(ec, e, s, st, sc, yield)
}

// The shape methods below describe each access kind for the exported
// plan shape (plantrace.go). They decompile the same key expressions
// enumerate evaluates, so the certificate checker justifies the path
// against exactly what would execute.

func (fullScan) shape(*shapeBuilder, *Table) (AccessShape, error) {
	return AccessShape{Kind: "full-scan"}, nil
}

func (a *indexEq) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	as := AccessShape{Kind: "index-eq", Index: a.ix.Name,
		IndexCols: indexColNames(t, a.ix), Col: t.Cols[a.ix.Cols[0]].Name}
	for _, k := range a.keys {
		es, err := sb.expr(k)
		if err != nil {
			return AccessShape{}, err
		}
		as.Keys = append(as.Keys, es)
	}
	return as, nil
}

func (a *indexPrefixes) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	key, err := sb.expr(a.x)
	if err != nil {
		return AccessShape{}, err
	}
	return AccessShape{Kind: "index-prefixes", Index: a.ix.Name,
		IndexCols: indexColNames(t, a.ix), Col: t.Cols[a.ix.Cols[0]].Name, Key: key,
		BuiltOver: a.restrict.builtOver(t)}, nil
}

func (a *hashEq) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	key, err := sb.expr(a.key)
	if err != nil {
		return AccessShape{}, err
	}
	return AccessShape{Kind: "hash-eq", Col: t.Cols[a.col].Name, Key: key, BuiltOver: a.restrict.builtOver(t)}, nil
}

func (a *keyProbe) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	return AccessShape{Kind: "key-probe", Index: a.ix.Name, IndexCols: indexColNames(t, a.ix),
		Col: t.Cols[a.col].Name, Resolved: a.res.index, Merged: a.merged}, nil
}

func (a *fatHash) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	as, err := a.h.shape(sb, t)
	if err != nil {
		return AccessShape{}, err
	}
	as.Kind = "fat-hash"
	return as, nil
}

func (a *indexRange) shape(sb *shapeBuilder, t *Table) (AccessShape, error) {
	as := AccessShape{Kind: "index-range", Index: a.ix.Name,
		IndexCols: indexColNames(t, a.ix), Col: t.Cols[a.ix.Cols[0]].Name,
		LoStrict: a.loStrict, HiStrict: a.hiStrict, BuiltOver: a.restrict.builtOver(t)}
	var err error
	if a.lo != nil {
		if as.Lo, err = sb.expr(a.lo); err != nil {
			return AccessShape{}, err
		}
	}
	if a.hi != nil {
		if as.Hi, err = sb.expr(a.hi); err != nil {
			return AccessShape{}, err
		}
	}
	return as, nil
}

func (a *indexRange) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	// Each bound is evaluated once; a NULL one admits no row.
	var loV Value
	var hiB bound
	if a.lo != nil {
		v, err := a.lo.eval(ec, e)
		if err != nil || v.IsNull() {
			return err
		}
		loV = v
	}
	if a.hi != nil {
		b, err := evalBound(ec, e, a.hi)
		if err != nil || b.v.IsNull() {
			return err
		}
		hiB = b
	}
	run := a.ix
	if a.restrict != nil {
		b, err := buildSide(ec, s, st, buildKey{col: a.ix.Cols[0], in: a.restrict.scope(), run: a.ix})
		if err != nil {
			return err
		}
		run = b.run.Index
	}
	// A strict lower bound starts past the keys that begin with it, a
	// non-strict upper one ends past them.
	var lo, hi []Value
	if a.lo != nil {
		lo = []Value{loV}
	}
	if a.hi != nil {
		if hiB.split {
			sc.key2 = append(append(sc.key2[:0], hiB.v.B...), hiB.tail...)
			hiB.v = NewBytes(sc.key2)
		}
		hi = []Value{hiB.v}
	}
	st.probe()
	_, err := yieldSeg(run.between(lo, a.loStrict, hi, !a.hiStrict), sc, yield)
	return err
}
