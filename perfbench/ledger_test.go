package main

import (
	"os/exec"
	"testing"
	"time"
)

// buildServers builds cdwd and etlvirtd from the enclosing module.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+"/", "etlvirt/cmd/cdwd", "etlvirt/cmd/etlvirtd").CombinedOutput()
	if err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	return dir
}

// TestLedgerSumsToJobWallClock runs small traced load_export and cdc_upsert
// passes against the real binaries and checks, per job, that the relay
// ledger's acquisition+application+other is within 10% of the
// client-observed job wall clock.
func TestLedgerSumsToJobWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the real servers")
	}
	bin := buildServers(t)
	for _, tc := range []struct {
		name string
		wl   func() (workloadRunner, error)
	}{
		{"load_export", func() (workloadRunner, error) { return newLoadExport(1, 20_000) }},
		{"cdc_upsert", func() (workloadRunner, error) { return newCDCUpsert(1, 300) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := tc.wl()
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: tc.name, seed: 1, traced: true, bin: bin, work: t.TempDir()}
			m, err := measure(cfg, wl, t.TempDir(), true, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			jobs := buildLedger(m.exch, m.stmts)
			if len(jobs) == 0 {
				t.Fatal("no jobs in the ledger")
			}
			gap, err := ledgerGap(jobs, m.rec.jobs)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case gap <= 0.10:
			case raceEnabled:
				t.Logf("ledger misses a job's wall clock by %.1f%% (not checked under -race)", 100*gap)
			default:
				t.Errorf("ledger misses a job's wall clock by %.1f%%", 100*gap)
			}
			for _, j := range jobs {
				if j.acquisition < 0 || j.application <= 0 || j.other < 0 || j.cdwWait <= 0 {
					t.Errorf("%s job %d: acquisition %v application %v other %v cdw wait %v",
						j.kind, j.id, j.acquisition, j.application, j.other, j.cdwWait)
				}
			}
			res, err := m.perLayer(m, cfg.work+"/spans.json")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("traced result: %+v", res)
			}
		})
	}
}
