package stream

import "time"

// Config tunes the adaptive controller. Zero values select defaults.
type Config struct {
	// Target is the end-to-end micro-batch commit latency the controller
	// steers toward. Zero defaults to 2s.
	Target time.Duration
	// MinBatch/MaxBatch clamp the records-per-micro-batch hint. Zeros
	// default to 16 and 8192.
	MinBatch int
	MaxBatch int
	// InitialBatch seeds the hint before any observation. Zero defaults to
	// 64 (clamped into [MinBatch, MaxBatch]).
	InitialBatch int
	// Alpha is the EWMA smoothing factor for observed latency and record
	// width, in (0, 1]. Larger reacts faster, smaller damps noise harder.
	// Zero defaults to 0.3.
	Alpha float64
	// Deadband is the fractional hysteresis band around Target inside which
	// the controller holds instead of chasing noise. Zero defaults to 0.15
	// (i.e. hold while smoothed latency is within ±15% of target).
	Deadband float64
	// MinSpoolBytes/MaxSpoolBytes clamp the staging-file rotation threshold
	// derived from the batch hint. Zeros default to 64 KiB and 4 MiB.
	MinSpoolBytes int
	MaxSpoolBytes int
	// MaxCopyFiles caps staged files folded into one COPY statement. Zero
	// defaults to 4.
	MaxCopyFiles int
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 {
		c.Target = 2 * time.Second
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8192
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.InitialBatch <= 0 {
		c.InitialBatch = 64
	}
	if c.InitialBatch < c.MinBatch {
		c.InitialBatch = c.MinBatch
	}
	if c.InitialBatch > c.MaxBatch {
		c.InitialBatch = c.MaxBatch
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.15
	}
	if c.MinSpoolBytes <= 0 {
		c.MinSpoolBytes = 64 << 10
	}
	if c.MaxSpoolBytes <= 0 {
		c.MaxSpoolBytes = 4 << 20
	}
	if c.MaxSpoolBytes < c.MinSpoolBytes {
		c.MaxSpoolBytes = c.MinSpoolBytes
	}
	if c.MaxCopyFiles <= 0 {
		c.MaxCopyFiles = 4
	}
	return c
}

// Decision is the controller's current preferred micro-batch geometry.
type Decision struct {
	Action     Action
	BatchRows  int // preferred records per micro-batch (the client frame hint)
	SpoolBytes int // staging-file rotation threshold for the batch
	CopyFiles  int // max staged files folded into one COPY statement
	// Dominant names the pipeline stage with the largest smoothed share of
	// commit latency ("spool", "upload", "copy", "apply", "checkpoint"), so a
	// grow/shrink decision is attributable to the stage driving it. Empty
	// until a stage breakdown has been observed.
	Dominant string
}

// Stages splits one micro-batch's commit latency into its pipeline stages,
// as measured by the streaming job. Zero fields are unobserved.
type Stages struct {
	Spool      time.Duration // delta decode + staging-file append
	Upload     time.Duration // staging-file rotation and object-store upload
	Copy       time.Duration // COPY of staged files into the work table
	Apply      time.Duration // merge/DML application to the target table
	Checkpoint time.Duration // watermark checkpoint write
}

// stageNames index the controller's per-stage EWMA array.
var stageNames = [...]string{"spool", "upload", "copy", "apply", "checkpoint"}

func (s Stages) seconds() [len(stageNames)]float64 {
	return [len(stageNames)]float64{
		s.Spool.Seconds(), s.Upload.Seconds(), s.Copy.Seconds(),
		s.Apply.Seconds(), s.Checkpoint.Seconds(),
	}
}

// Stats counts controller decisions since construction.
type Stats struct {
	Grows   uint64
	Shrinks uint64
	Holds   uint64
}

// Controller is the adaptive micro-batch sizer. It is a pure unit: it never
// reads the clock — the caller measures each batch's commit latency and
// feeds it to Observe, which returns the geometry for the next batch. It is
// not safe for concurrent use; the streaming job serializes batch commits.
//
// The control law is stepToTarget — a damped multiplicative-adjust
// loop: smoothed latency outside the deadband moves the batch size by the
// ratio target/latency, clamped to [1/2, 3/2] per step so a single outlier
// cannot collapse or explode the batch, then clamped to [MinBatch,
// MaxBatch]. Commit latency grows monotonically with batch size (fixed
// per-batch overhead plus per-row cost), so the ratio step contracts toward
// the fixed point where latency sits inside the band, and the deadband
// stops it from oscillating around the target on noisy measurements.
type Controller struct {
	cfg Config

	batch       int
	lat         ewma // smoothed commit latency, seconds
	bytesPerRow ewma // smoothed record width

	stageSec    [len(stageNames)]ewma // smoothed per-stage latency, seconds
	stageSeeded bool

	stats Stats
}

// NewController builds a controller steering toward cfg.Target.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, batch: cfg.InitialBatch}
}

// Target reports the configured latency target after defaulting.
func (c *Controller) Target() time.Duration { return c.cfg.Target }

// Stats returns decision counts since construction.
func (c *Controller) Stats() Stats { return c.stats }

// Hint returns the current geometry without recording an observation.
func (c *Controller) Hint() Decision {
	return Decision{
		Action:     ActionHold,
		BatchRows:  c.batch,
		SpoolBytes: c.spoolBytes(),
		CopyFiles:  c.copyFiles(),
	}
}

// Observe records one committed micro-batch (rows records, bytes of raw
// payload, end-to-end commit latency) and returns the geometry for the next
// batch.
func (c *Controller) Observe(rows, bytes int, latency time.Duration) Decision {
	return c.ObserveStages(rows, bytes, latency, Stages{})
}

// StageEWMA returns the smoothed per-stage latency breakdown, keyed by stage
// name. Nil until a stage breakdown has been observed.
func (c *Controller) StageEWMA() map[string]time.Duration {
	if !c.stageSeeded {
		return nil
	}
	out := make(map[string]time.Duration, len(stageNames))
	for i, name := range stageNames {
		out[name] = time.Duration(c.stageSec[i].value() * float64(time.Second))
	}
	return out
}

// dominant names the stage with the largest smoothed latency share.
func (c *Controller) dominant() string {
	if !c.stageSeeded {
		return ""
	}
	best, bestSec := "", 0.0
	for i, name := range stageNames {
		if c.stageSec[i].value() > bestSec {
			best, bestSec = name, c.stageSec[i].value()
		}
	}
	return best
}

// ObserveStages is Observe with a per-stage latency breakdown attached, so
// the decision reports which stage dominates the commit path. A zero Stages
// leaves the attribution state untouched.
func (c *Controller) ObserveStages(rows, bytes int, latency time.Duration, st Stages) Decision {
	if st != (Stages{}) {
		sec := st.seconds()
		for i := range sec {
			c.stageSec[i].observe(c.cfg.Alpha, sec[i])
		}
		c.stageSeeded = true
	}
	if rows <= 0 || latency <= 0 {
		d := c.Hint()
		d.Dominant = c.dominant()
		c.stats.Holds++
		return d
	}
	smoothed := c.lat.observe(c.cfg.Alpha, latency.Seconds())
	if width := float64(bytes) / float64(rows); !c.bytesPerRow.seeded || bytes > 0 {
		c.bytesPerRow.observe(c.cfg.Alpha, width)
	}

	var action Action
	c.batch, action = stepToTarget(c.batch, smoothed, c.cfg.Target.Seconds(), c.cfg.Deadband,
		c.cfg.MinBatch, c.cfg.MaxBatch)
	switch action {
	case ActionGrow:
		c.stats.Grows++
	case ActionShrink:
		c.stats.Shrinks++
	default:
		c.stats.Holds++
	}
	return Decision{
		Action:     action,
		BatchRows:  c.batch,
		SpoolBytes: c.spoolBytes(),
		CopyFiles:  c.copyFiles(),
		Dominant:   c.dominant(),
	}
}

// spoolBytes derives the staging-file rotation threshold: enough for one
// micro-batch in a single file when records are narrow, clamped so wide
// records still rotate before unbounded buffering.
func (c *Controller) spoolBytes() int {
	width := c.bytesPerRow.value()
	if width <= 0 {
		width = 128 // prior before any observation
	}
	spool := int(width * float64(c.batch))
	if spool < c.cfg.MinSpoolBytes {
		spool = c.cfg.MinSpoolBytes
	}
	if spool > c.cfg.MaxSpoolBytes {
		spool = c.cfg.MaxSpoolBytes
	}
	return spool
}

// copyFiles scales the files-per-COPY batch linearly with where the batch
// hint sits in [MinBatch, MaxBatch]: small latency-bound batches commit one
// file at a time, large throughput-bound batches amortize COPY overhead
// across several staged files.
func (c *Controller) copyFiles() int {
	span := c.cfg.MaxBatch - c.cfg.MinBatch
	if span <= 0 || c.cfg.MaxCopyFiles <= 1 {
		return 1
	}
	files := 1 + (c.batch-c.cfg.MinBatch)*(c.cfg.MaxCopyFiles-1)/span
	if files < 1 {
		files = 1
	}
	if files > c.cfg.MaxCopyFiles {
		files = c.cfg.MaxCopyFiles
	}
	return files
}
