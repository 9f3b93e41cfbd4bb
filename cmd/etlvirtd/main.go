// Command etlvirtd runs the virtualizer node: it listens for legacy
// ETL-client connections, cross-compiles their protocol and SQL, and
// executes jobs against a CDW server (cdwd), staging data through the shared
// object store.
//
// Usage:
//
//	etlvirtd -listen 127.0.0.1:7000 -cdw 127.0.0.1:7001 -store /tmp/etlvirt-store
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
	"etlvirt/internal/faultinject"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to serve the legacy protocol on")
	cdwAddr := flag.String("cdw", "127.0.0.1:7001", "address of the CDW server (cdwd)")
	storeDir := flag.String("store", "", "object-store directory shared with cdwd (required)")
	credits := flag.Int("credits", 0, "CreditManager pool size (0 = default)")
	memBudget := flag.Int64("mem-budget", 0, "in-flight chunk memory cap in bytes (0 = unlimited)")
	converters := flag.Int("converters", 0, "parallel DataConverter workers per job (0 = GOMAXPROCS)")
	writers := flag.Int("filewriters", 0, "parallel FileWriter goroutines per job (0 = default)")
	fileSize := flag.Int("filesize", 0, "intermediate file size threshold in bytes (0 = 4MiB)")
	gz := flag.Bool("gzip", false, "gzip intermediate files before upload")
	gzLevel := flag.Int("gzip-level", 0, "static gzip level 1..9 for intermediate files (0 = default)")
	copyFiles := flag.Int("copy-batch-files", 0, "uploaded files folded into each incremental COPY manifest (0 = 4; above the file count = one COPY after acquisition drains)")
	schemaMap := flag.String("schema-map", "", "legacy->CDW schema renames, e.g. PROD=analytics,DW=warehouse")
	maxErrors := flag.Int("maxerrors", 0, "default max_errors for jobs that do not set one")
	maxRetries := flag.Int("maxretries", 0, "default max_retries for jobs that do not set one")
	debugAddr := flag.String("debug", "", "optional address for /healthz, /metrics, /jobs, /jobs/active, /jobs/{id}/trace and /debug/pprof (e.g. 127.0.0.1:7070)")
	reportLog := flag.Int("report-log", 0, "completed job reports kept in memory (0 = 1024)")
	traceRetain := flag.Int("trace-retain", 0, "finished job traces kept for /jobs/{id}/trace (0 = 64)")
	traceSpans := flag.Int("trace-spans", 0, "span cap per job trace (0 = 8192)")
	eventLog := flag.Int("event-log", 0, "structured events kept in the /events ring buffer (0 = 1024)")
	eventFile := flag.String("event-file", "", "optional file to mirror the structured event log to as JSONL")
	faultSpec := flag.String("fault-spec", "", "fault-injection spec, e.g. 'store.put:rate=0.1,class=timeout;cdw.exec:every=50' (empty = off)")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for -fault-spec schedules")
	retryMax := flag.Int("retry-max", 0, "attempts per retried operation incl. the first (0 = 4)")
	retryBase := flag.Duration("retry-base", 0, "backoff before the first retry (0 = 5ms)")
	retryCap := flag.Duration("retry-cap", 0, "backoff ceiling (0 = 500ms)")
	retryBudget := flag.Int64("retry-budget", 0, "total retries allowed node-wide (0 = unlimited)")
	putTimeout := flag.Duration("put-timeout", 0, "per-put object-store deadline (0 = none)")
	cdwTimeout := flag.Duration("cdw-timeout", 0, "per-round-trip CDW deadline (0 = none)")
	streamLatency := flag.Duration("stream-latency-target", 0, "end-to-end commit latency target for CDC micro-batches (0 = 2s)")
	streamMinBatch := flag.Int("stream-min-batch", 0, "micro-batch size floor in deltas (0 = 16)")
	streamMaxBatch := flag.Int("stream-max-batch", 0, "micro-batch size ceiling in deltas (0 = 8192)")
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "etlvirtd: -store is required")
		os.Exit(2)
	}
	store, err := cloudstore.NewDirStore(*storeDir)
	if err != nil {
		log.Fatalf("etlvirtd: %v", err)
	}

	cfg := core.Config{
		CDWAddr:             *cdwAddr,
		Credits:             *credits,
		MemBudget:           *memBudget,
		Converters:          *converters,
		FileWriters:         *writers,
		FileSizeThreshold:   *fileSize,
		Gzip:                *gz,
		GzipLevel:           *gzLevel,
		CopyBatchFiles:      *copyFiles,
		MaxErrors:           *maxErrors,
		MaxRetries:          *maxRetries,
		ReportLogSize:       *reportLog,
		TraceRetention:      *traceRetain,
		TraceSpansPerJob:    *traceSpans,
		EventLogSize:        *eventLog,
		RetryMaxAttempts:    *retryMax,
		RetryBaseDelay:      *retryBase,
		RetryMaxDelay:       *retryCap,
		RetryBudget:         *retryBudget,
		PutTimeout:          *putTimeout,
		CDWTimeout:          *cdwTimeout,
		StreamLatencyTarget: *streamLatency,
		StreamMinBatch:      *streamMinBatch,
		StreamMaxBatch:      *streamMaxBatch,
		Logger:              slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatalf("etlvirtd: -fault-spec: %v", err)
		}
		cfg.FaultInjector = inj
		log.Printf("etlvirtd: fault injection armed (seed %d): %s", *faultSeed, *faultSpec)
	}
	if *eventFile != "" {
		f, err := os.OpenFile(*eventFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("etlvirtd: -event-file: %v", err)
		}
		defer f.Close()
		cfg.EventSink = f
	}
	if *schemaMap != "" {
		cfg.SchemaMap = map[string]string{}
		for _, pair := range strings.Split(*schemaMap, ",") {
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 {
				log.Fatalf("etlvirtd: bad -schema-map entry %q", pair)
			}
			cfg.SchemaMap[strings.ToUpper(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
		}
	}

	node := core.NewNode(cfg, store)
	addr, err := node.Listen(*listen)
	if err != nil {
		log.Fatalf("etlvirtd: %v", err)
	}
	log.Printf("etlvirtd: serving legacy protocol on %s, CDW at %s, store at %s", addr, *cdwAddr, *storeDir)
	if *debugAddr != "" {
		dbg, err := node.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatalf("etlvirtd: debug listener: %v", err)
		}
		log.Printf("etlvirtd: debug endpoints on http://%s", dbg)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("etlvirtd: shutting down")
	node.Close()
	for _, r := range node.Reports() {
		log.Printf("etlvirtd: job %d target=%s acq=%v app=%v rows=%d errsET=%d errsUV=%d",
			r.JobID, r.Target, r.Acquisition, r.Application, r.RowsIn, r.ErrorsET, r.ErrorsUV)
	}
}
