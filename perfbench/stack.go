package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"etlvirt/internal/cdwnet"
)

// server is one launched daemon (cdwd or etlvirtd). Its stderr is drained
// for the whole life of the process; the address comes from the daemon's own
// "serving ... on <addr>" log line, so readiness is known the moment the
// listener is bound, with no polling step.
type server struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once stderr hit EOF and Wait returned
	mu     sync.Mutex
	tail   []string // last stderr lines, for error reports
}

// startServer execs bin with args and waits until it logs marker followed by
// its listen address.
func startServer(name, bin string, args []string, marker string) (*server, error) {
	s := &server{name: name, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if i := strings.Index(line, marker); !found && i >= 0 {
				addr := line[i+len(marker):]
				if j := strings.IndexAny(addr, ", "); j >= 0 {
					addr = addr[:j]
				}
				found = true
				ready <- addr
			}
		}
		_ = s.cmd.Wait() // exit status is irrelevant: the caller kills it
		close(s.exited)
	}()
	select {
	case s.addr = <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, s.lastLines())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report its listen address", name)
	}
}

func (s *server) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop kills the process and waits for it to end.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already-exited processes report an error
	<-s.exited
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stack is one cdwd + etlvirtd pair over a shared store directory, with the
// optional relays of a traced run in the two TCP seams.
type stack struct {
	dir       string
	cdwd      *server
	virt      *server
	clientTo  string // address the load generator dials (etlvirtd or its relay)
	cdwDirect string // cdwd itself, for set-up, resets and checks
	wire      *wireRelay
	cdwRelay  *cdwRelay
	admin     *cdwnet.Client
}

// launch starts cdwd, then etlvirtd pointed at it, each with its shipped
// default flags plus the listen, store and cdw addresses. traced puts a
// cdwnet relay between etlvirtd and cdwd and a wire relay in front of
// etlvirtd.
func launch(binDir, dir string, traced bool) (*stack, error) {
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	var err error
	st.cdwd, err = startServer("cdwd", filepath.Join(binDir, "cdwd"),
		[]string{"-listen", "127.0.0.1:0", "-store", store}, "serving on ")
	if err != nil {
		return nil, err
	}
	st.cdwDirect = st.cdwd.addr
	cdwFor := st.cdwd.addr
	if traced {
		if st.cdwRelay, err = newCDWRelay(st.cdwd.addr); err != nil {
			st.close()
			return nil, err
		}
		cdwFor = st.cdwRelay.addr()
	}
	st.virt, err = startServer("etlvirtd", filepath.Join(binDir, "etlvirtd"),
		[]string{"-listen", "127.0.0.1:0", "-cdw", cdwFor, "-store", store},
		"serving legacy protocol on ")
	if err != nil {
		st.close()
		return nil, err
	}
	st.clientTo = st.virt.addr
	if traced {
		if st.wire, err = newWireRelay(st.virt.addr); err != nil {
			st.close()
			return nil, err
		}
		st.clientTo = st.wire.addr()
	}
	if st.admin, err = cdwnet.Dial(st.cdwDirect); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// exec runs statements directly on cdwd, bypassing the virtualizer and any
// relay.
func (st *stack) exec(stmts ...string) error {
	for _, s := range stmts {
		if _, err := st.admin.Exec(s); err != nil {
			return fmt.Errorf("cdwd: %s: %w", firstLine(s), err)
		}
	}
	return nil
}

// count runs a single-value query directly on cdwd.
func (st *stack) count(sql string) (int64, error) {
	_, rows, err := st.admin.QueryAll(sql)
	if err != nil {
		return 0, fmt.Errorf("cdwd: %s: %w", sql, err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("cdwd: %s: want one value", sql)
	}
	return rows[0][0].I, nil
}

// close stops every process and relay of the stack and waits for them.
func (st *stack) close() {
	if st.admin != nil {
		st.admin.Close()
	}
	if st.wire != nil {
		st.wire.close()
	}
	if st.virt != nil {
		st.virt.stop()
	}
	if st.cdwRelay != nil {
		st.cdwRelay.close()
	}
	if st.cdwd != nil {
		st.cdwd.stop()
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns user+sys CPU time consumed so far by pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+stt) * time.Second / clockTick, nil
}

// procRSS returns the resident set size of pid in bytes (VmRSS).
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmRSS")
}

// rssSampler reads both servers' VmRSS at a fixed period while active is
// set, i.e. only while a timed unit runs.
type rssSampler struct {
	pids   [2]int
	active atomic.Bool
	stopCh chan struct{}
	done   chan struct{}

	mu  sync.Mutex
	sum [2]float64
	n   int
	err error
}

const rssPeriod = 25 * time.Millisecond

func startRSSSampler(virtPID, cdwPID int) *rssSampler {
	s := &rssSampler{pids: [2]int{virtPID, cdwPID}, stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				if s.active.Load() {
					s.sample()
				}
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	var v [2]int64
	for i, pid := range s.pids {
		r, err := procRSS(pid)
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
		v[i] = r
	}
	s.mu.Lock()
	s.sum[0] += float64(v[0])
	s.sum[1] += float64(v[1])
	s.n++
	s.mu.Unlock()
}

// stop ends sampling and returns the mean RSS in MB of etlvirtd and cdwd.
func (s *rssSampler) stop() (virtMB, cdwMB float64, err error) {
	close(s.stopCh)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, 0, s.err
	}
	if s.n == 0 {
		return 0, 0, errors.New("no RSS samples in the measured window")
	}
	return s.sum[0] / float64(s.n) / 1e6, s.sum[1] / float64(s.n) / 1e6, nil
}
