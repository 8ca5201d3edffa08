package engine

// Batched execution support: operator boundaries move fixed-size
// row-id batches (batchCapacity) instead of single rows, so dispatch,
// cancellation polls, governor charges and stat updates are paid once
// per batch. Results, operator stats and EXPLAIN ANALYZE output are
// identical at every capacity — 1 degenerates to row-at-a-time
// execution — which the engine tests check by forcing other capacities
// through DB.forceBatch.

// batchCapacity is the row-id batch capacity at operator boundaries.
const batchCapacity = 1024

// batchScratch is the per-step working memory of one active scan:
// the id batch buffer and the key-encoding buffers its access path
// builds bounds into. Each nesting level of the join pipeline owns its
// own scratch (pooled on the execCtx) because an outer step's index
// scan is still walking its key bounds while inner steps run.
type batchScratch struct {
	// n is the batch capacity; ids is made when an access path first
	// collects ids (idBuf), no larger than it asks for up to that
	// capacity — the lookups in an explicit run or a hash hand on their
	// postings and never do.
	n    int
	ids  []int64
	key  []byte
	key2 []byte
}

// idBuf returns the scratch's id buffer, empty, with room for want ids
// or a whole batch, whichever is less; it grows by doubling.
func (sc *batchScratch) idBuf(want int) []int64 {
	if want = min(want, sc.n); cap(sc.ids) < want {
		sc.ids = make([]int64, 0, min(max(want, 2*cap(sc.ids)), sc.n))
	}
	return sc.ids[:0]
}

// getScratch returns a scratch of batch capacity n,
// reusing a pooled one when available. Early-stopping consumers
// (EXISTS, scalar subqueries) run with n=1 and draw from a separate
// free list so their buffers don't shrink the main pipeline's.
func (ec *execCtx) getScratch(n int) *batchScratch {
	pool := &ec.free
	if n == 1 {
		pool = &ec.freeOne
	}
	if k := len(*pool); k > 0 {
		sc := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return sc
	}
	return &batchScratch{n: n}
}

// putScratch returns a scratch to its free list.
func (ec *execCtx) putScratch(sc *batchScratch) {
	if sc.n == 1 {
		ec.freeOne = append(ec.freeOne, sc)
		return
	}
	ec.free = append(ec.free, sc)
}

// checkBatch amortizes cancellation checks over batches: the context
// is polled about once per 1024 rows regardless of the batch capacity.
func (ec *execCtx) checkBatch(n int) error {
	if ec.ctx == nil {
		return nil
	}
	ec.ticks += n
	if ec.ticks < 1024 {
		return nil
	}
	ec.ticks = 0
	return ec.checkNow()
}
