package core

import "fmt"

// This file is the import's copy scheduler: it lands already-uploaded files
// in incremental manifest COPY batches while acquisition is still producing
// more, overlapping COPY latency with conversion, spooling and upload.

// takeBatch splits the next n names off pending without copying. The batch
// is capacity-capped so later appends to rest can never write into it —
// landed batches retain their manifest slices across COPY recovery replays.
//
//etlvirt:hotpath
func takeBatch(pending []string, n int) (batch, rest []string) {
	if n < 1 {
		n = 1
	}
	if n > len(pending) {
		n = len(pending)
	}
	return pending[:n:n], pending[n:]
}

// runCopyScheduler is the copy-scheduler stage: it accumulates uploaded
// object names and folds every CopyBatchFiles of them into one manifest
// COPY, issued while the rest of the pipeline keeps running. When the
// channel closes (all uploads landed) it sweeps whatever remains as the
// final barrier COPY, so finishAcquisition only has to verify totals. A
// CopyBatchFiles above the job's file count therefore holds every file for
// the barrier: one COPY after acquisition drains.
func (j *importJob) runCopyScheduler() {
	defer j.schedWG.Done()
	n := j.node.cfg.CopyBatchFiles
	var pending []string
	dead := false // a COPY failed permanently; drain without issuing more
	issue := func(batch []string) {
		if err := j.issueCopyBatch(batch); err != nil {
			dead = true
			j.fail(fmt.Errorf("incremental COPY into staging failed: %w", err))
		}
	}
	for name := range j.copyableCh {
		pending = append(pending, name)
		for !dead && len(pending) >= n {
			var batch []string
			batch, pending = takeBatch(pending, n)
			issue(batch)
		}
	}
	for len(pending) > 0 && !dead {
		var batch []string
		batch, pending = takeBatch(pending, n)
		issue(batch)
	}
}

// issueCopyBatch lands one manifest batch and keeps the live bookkeeping the
// debug view reads.
func (j *importJob) issueCopyBatch(batch []string) error {
	if err := j.lane.copy(batch); err != nil {
		return err
	}
	j.copyQueue.Add(int64(-len(batch)))
	j.batchesN.Add(1)
	nm := j.node.nm
	nm.copyBatches.Inc()
	nm.copyBatchFiles.Observe(float64(len(batch)))
	return nil
}
