package core

import (
	"errors"
	"fmt"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
)

// stagingLane is the one staging path of Figure 2(a), shared by imports and
// streams: spool objects uploaded under the lane's prefix land in its staging
// table through manifest COPYs that name exactly the objects to ingest, so
// nothing else under the prefix can leak in. The lane logs every batch landed
// since its last reset, which is what makes COPY recovery exactly-once.
//
// COPYs on one lane are issued one at a time (an import's copy scheduler and
// then its finisher, or a stream's session goroutine), so the lane needs no
// lock.
type stagingLane struct {
	node   *Node
	trace  *obs.JobTrace
	worker string // trace lane of the COPY spans
	table  sqlparse.TableName
	ddl    string // CREATE TABLE for the staging table
	prefix string // object-store prefix manifests are relative to

	landed []copyBatch // batches landed since the last reset
	staged int64       // rows landed across those batches
}

// copyBatch is one landed staging COPY: the manifest (object names relative
// to the lane's prefix) and the row count the COPY reported.
type copyBatch struct {
	files []string
	rows  int64
}

func newStagingLane(n *Node, trace *obs.JobTrace, worker string, table sqlparse.TableName, layout *ltype.Layout, prefix string) (*stagingLane, error) {
	ddl, err := sqlxlate.StagingDDL(table, layout)
	if err != nil {
		return nil, err
	}
	return &stagingLane{node: n, trace: trace, worker: worker, table: table, ddl: ddl, prefix: prefix}, nil
}

// upload puts one spool object under the lane's prefix through put. Puts
// are idempotent (same key, same bytes), so transient store failures are
// retried whole-object.
func (l *stagingLane) upload(name string, put func(key string) (int64, error)) (int64, error) {
	var n int64
	err := l.node.retry.Do(l.node.ctx, "upload", func() error {
		var err error
		n, err = put(l.prefix + name)
		return err
	})
	return n, err
}

// recreate drops and recreates the empty staging table.
func (l *stagingLane) recreate() error {
	for _, sql := range []string{dropIfExists(l.table), l.ddl} {
		if _, err := l.node.pool.ExecT(sql, l.trace.ChildContext()); err != nil {
			return err
		}
	}
	return nil
}

// reset starts the lane over for a stream batch: an empty staging table and
// an empty log. Drop-then-create is idempotent as a pair, so a transient
// failure, even one after the statement reached the CDW, retries the pair
// whole.
func (l *stagingLane) reset() error {
	l.landed = l.landed[:0]
	l.staged = 0
	return l.node.retry.Do(l.node.ctx, "stage_reset", l.recreate)
}

// copySQL renders the staging COPY for one manifest. The engine decides
// per file whether to gunzip from the object's .gz suffix, so the statement
// carries no compression option.
func (l *stagingLane) copySQL(files []string) (string, error) {
	st := &sqlparse.CopyStmt{
		Table:   l.table,
		From:    "store://" + l.prefix,
		Files:   files,
		Options: map[string]string{"format": "csv", "order": sqlxlate.SeqColumn},
	}
	return sqlparse.Print(st, sqlparse.DialectCDW)
}

// copy lands one manifest batch under the node's retry policy. Transient
// transport failures are already retried inside the pool; this layer also
// recovers engine-side COPY failures (the CDW reading a faulted object
// store) by recreating the staging table and replaying every batch already
// landed, so the recreated table holds exactly what it held before the
// failing attempt, then re-running the batch. Each landed batch is logged
// once, so replays are exactly-once however many attempts recovery takes.
// Engine errors other than CodeCopyFailed surface immediately.
func (l *stagingLane) copy(files []string) error {
	nm := l.node.nm
	var staged int64
	attempt := 0
	r := *l.node.retry // shares Budget/observers; only Retryable differs
	r.Retryable = func(err error) bool {
		if retrier.IsTransient(err) {
			return true
		}
		var ce *cdw.Error
		return errors.As(err, &ce) && ce.Code == cdw.CodeCopyFailed
	}
	// COPY is made idempotent by the recovery step above each re-attempt
	// (recreate staging + replay landed batches), so retrying Exec here
	// cannot double-apply.
	err := r.Do(l.node.ctx, "copy", func() error { //nolint:retrysafe // COPY re-runs against a recreated staging table
		attempt++
		if attempt > 1 {
			recStart := time.Now()
			nm.copyRecoveries.Inc()
			if err := l.recreate(); err != nil {
				return err
			}
			for i := range l.landed {
				b := &l.landed[i]
				sql, err := l.copySQL(b.files)
				if err != nil {
					return err
				}
				rows, err := l.node.pool.ExecT(sql, l.trace.ChildContext())
				if err != nil {
					return err
				}
				nm.copyReplays.Inc()
				if rows != b.rows {
					return fmt.Errorf("replaying COPY batch landed %d rows, originally %d", rows, b.rows)
				}
			}
			l.trace.Span("copy_retry", l.worker, recStart, 0, 0, nil)
		}
		sql, err := l.copySQL(files)
		if err != nil {
			return err
		}
		copyStart := time.Now()
		staged, err = l.node.pool.ExecT(sql, l.trace.ChildContext())
		nm.copyStatements.Inc()
		l.trace.Span("copy", l.worker, copyStart, staged, 0, err)
		return err
	})
	if err != nil {
		return err
	}
	l.landed = append(l.landed, copyBatch{files: files, rows: staged})
	l.staged += staged
	return nil
}
