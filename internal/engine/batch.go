package engine

// Batched execution support: operator boundaries move fixed-size
// row-id batches (ExecOptions.BatchSize, default DefaultBatchSize)
// instead of single rows, so dispatch, deadline polls, governor
// charges and stat updates are paid once per batch. Results, operator
// stats and EXPLAIN ANALYZE output are identical at every batch size
// — BatchSize=1 degenerates to the old row-at-a-time execution.

// DefaultBatchSize is the row-id batch capacity used when
// ExecOptions.BatchSize is unset.
const DefaultBatchSize = 1024

// batchScratch is the per-step working memory of one active scan:
// the id batch buffer and the key-encoding buffers its access path
// builds bounds into. Each nesting level of the join pipeline owns its
// own scratch (pooled on the execCtx) because an outer step's index
// scan is still walking its key bounds while inner steps run.
type batchScratch struct {
	// n is the batch capacity; ids, of that capacity, is made when an
	// access path first collects ids (idBuf) — the index and hash lookups
	// hand on their postings and never do.
	n    int
	ids  []int64
	key  []byte
	key2 []byte
}

// idBuf returns the scratch's id buffer, empty.
func (sc *batchScratch) idBuf() []int64 {
	if sc.ids == nil {
		sc.ids = make([]int64, 0, sc.n)
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

// checkBatch amortizes deadline/cancellation checks over batches: the
// clock is consulted about once per 1024 rows regardless of the batch
// size, matching the cadence of the old per-row tick counter.
func (ec *execCtx) checkBatch(n int) error {
	if ec.deadline.IsZero() && ec.ctx == nil {
		return nil
	}
	ec.ticks += n
	if ec.ticks < 1024 {
		return nil
	}
	ec.ticks = 0
	return ec.checkNow()
}
