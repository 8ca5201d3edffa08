package engine

import "bytes"

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

// yieldChunks streams an index's already-materialized posting list to
// yield in sub-slices of at most batch ids, without copying. It
// reports false when yield stopped the enumeration.
func yieldChunks(ids []int64, batch int, yield batchYield) (bool, error) {
	for len(ids) > 0 {
		n := len(ids)
		if n > batch {
			n = batch
		}
		cont, err := yield(ids[:n])
		if err != nil || !cont {
			return false, err
		}
		ids = ids[n:]
	}
	return true, nil
}

func (fullScan) enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	n := len(s.st.rows)
	buf := sc.idBuf()
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
	key := sc.key[:0]
	for _, kx := range a.keys {
		v, err := kx.eval(ec, e)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		key = encodeValue(key, v)
	}
	sc.key = key
	st.probe()
	_, err := yieldChunks(a.ix.Tree.Get(key), sc.n, yield)
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
	if a.restrict != nil {
		return a.enumerateRun(ec, v.B, s, st, sc, yield)
	}
	buf := sc.idBuf()
	for k := 0; k <= len(v.B); k++ {
		// Prefix-match within a possibly composite index: scan the
		// interval covering exactly this first-component value. The
		// bounds live in this step's scratch (not shared buffers):
		// yield runs nested steps while the Scan is still walking them.
		lo := encodeValue(sc.key[:0], NewBytes(v.B[:k]))
		sc.key = lo
		hi := append(sc.key2[:0], lo...)
		hi = append(hi, 0xFF)
		sc.key2 = hi
		st.probe()
		stop := false
		var scanErr error
		a.ix.Tree.Scan(lo, hi, func(_ []byte, id int64) bool {
			buf = append(buf, id)
			if len(buf) == cap(buf) {
				cont, err := yield(buf)
				buf = buf[:0]
				if err != nil {
					scanErr = err
					return false
				}
				stop = !cont
				return cont
			}
			return true
		})
		if scanErr != nil || stop {
			return scanErr
		}
	}
	return flushTail(buf, yield)
}

// enumerateRun is the ancestor step over its scoped run: the rows whose
// position is a prefix of x are those equal to x's prefix of some
// length the run holds, so it searches once per such length, the
// prefixes — and with them the matches — ascending.
func (a *indexPrefixes) enumerateRun(ec *execCtx, x []byte, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	col := a.ix.Cols[0]
	b, err := buildSide(ec, s, st, buildKey{col: col, in: a.restrict.scope(), run: true})
	if err != nil {
		return err
	}
	r := b.run
	rows, ids, buf := s.st.rows, r.ids, sc.idBuf()
	for _, n := range r.lens {
		if n > len(x) {
			break
		}
		st.probe()
		p := x[:n]
		// Every value before p's lower bound is below the longer prefixes
		// too: each search starts where the last one ended.
		for ids = ids[lowerBound(rows, col, ids, p):]; len(ids) > 0 && bytes.Equal(rows[ids[0]][col].B, p); ids = ids[1:] {
			buf = append(buf, ids[0])
			if len(buf) == cap(buf) {
				cont, err := yield(buf)
				if err != nil || !cont {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	return flushTail(buf, yield)
}

// lowerBound is the first position in ids, a run ordered by column col,
// whose value is not below v.
func lowerBound(rows [][]Value, col int, ids []int64, v []byte) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(rows[ids[m]][col].B, v) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
	_, err = yieldChunks(b.hash[string(key)], sc.n, yield)
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
	var m map[string][]int64
	if a.ix == nil {
		b, err := buildSide(ec, s, st, buildKey{col: a.col})
		if err != nil {
			return err
		}
		m = b.hash
	}
	var lists [][]int64
	if a.merged {
		lists = make([][]int64, 0, len(a.res.keys.keys))
	}
	for _, k := range a.res.keys.keys {
		key := encodeValue(sc.key[:0], NewInt(k))
		sc.key = key
		st.probe()
		ids := m[string(key)]
		if a.ix != nil {
			ids = a.ix.Tree.Get(key)
		}
		if a.merged {
			if len(ids) > 0 {
				lists = append(lists, ids)
			}
			continue
		}
		if cont, err := yieldChunks(ids, sc.n, yield); err != nil || !cont {
			return err
		}
	}
	return yieldMerged(lists, sc.idBuf(), yield)
}

// yieldMerged streams the union of ascending, pairwise disjoint posting
// lists in ascending order: a binary heap of the lists ordered by their
// heads, the least head moved to the batch buffer each turn.
func yieldMerged(lists [][]int64, buf []int64, yield batchYield) error {
	for i := len(lists)/2 - 1; i >= 0; i-- {
		siftDown(lists, i)
	}
	for len(lists) > 0 {
		buf = append(buf, lists[0][0])
		if lists[0] = lists[0][1:]; len(lists[0]) == 0 {
			lists[0] = lists[len(lists)-1]
			lists = lists[:len(lists)-1]
		}
		siftDown(lists, 0)
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

// siftDown restores the heap order of lists below position i.
func siftDown(lists [][]int64, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(lists); c++ {
			if lists[c][0] < lists[least][0] {
				least = c
			}
		}
		if least == i {
			return
		}
		lists[i], lists[least] = lists[least], lists[i]
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
	as := AccessShape{Kind: "key-probe", Col: t.Cols[a.col].Name, Resolved: a.res.index, Merged: a.merged}
	if a.ix != nil {
		as.Index, as.IndexCols = a.ix.Name, indexColNames(t, a.ix)
	}
	return as, nil
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
	if a.restrict != nil {
		return a.enumerateRun(ec, loV, hiB, s, st, sc, yield)
	}
	var lo, hi []byte
	if a.lo != nil {
		lo = encodeValue(sc.key[:0], loV)
		if a.loStrict {
			lo = append(lo, 0xFF)
		}
		sc.key = lo
	}
	if a.hi != nil {
		hi = hiB.encode(sc.key2[:0])
		if !a.hiStrict {
			hi = append(hi, 0xFF)
		}
		sc.key2 = hi
	}
	st.probe()
	buf := sc.idBuf()
	stop := false
	var scanErr error
	a.ix.Tree.Scan(lo, hi, func(_ []byte, id int64) bool {
		buf = append(buf, id)
		if len(buf) == cap(buf) {
			cont, err := yield(buf)
			buf = buf[:0]
			if err != nil {
				scanErr = err
				return false
			}
			stop = !cont
			return cont
		}
		return true
	})
	if scanErr != nil || stop {
		return scanErr
	}
	return flushTail(buf, yield)
}

// enumerateRun is the descendant window over its scoped run: one search
// for the lower bound, then the run's ids while their values are not
// above hi, handed on in place, a batch at a time. A prefix window's
// bounds are byte strings, as its column is (accessFromBetween).
func (a *indexRange) enumerateRun(ec *execCtx, lo Value, hi bound, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error {
	col := a.ix.Cols[0]
	b, err := buildSide(ec, s, st, buildKey{col: col, in: a.restrict.scope(), run: true})
	if err != nil {
		return err
	}
	r := b.run
	st.probe()
	rows := s.st.rows
	ids := r.ids[lowerBound(rows, col, r.ids, lo.B):]
	for {
		n := 0
		for n < len(ids) && n < sc.n && compareConcat(rows[ids[n]][col].B, hi.v.B, hi.tail) <= 0 {
			n++
		}
		if n == 0 {
			return nil
		}
		if cont, err := yield(ids[:n]); err != nil || !cont {
			return err
		}
		ids = ids[n:]
	}
}
