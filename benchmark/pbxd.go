package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// server is the system under test as the load generator sees it: an
// address to send SIP to, and the instruments read from outside it.
// childServer is the real thing (cmd/pbxd as a child process); the
// traced run substitutes an in-process server wired the same way.
type server interface {
	sipAddr() string
	// scrape reads the server's /metrics.
	scrape() (promSamples, error)
	// usage reads the server process's cumulative CPU time.
	usage() (cpuTimes, error)
	// memory reads the server process's memory and scheduling figures.
	memory() (memStat, error)
	// stop shuts the server down and waits until it is gone.
	stop() error
}

type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{user: c.user - o.user, sys: c.sys - o.sys}
}

type memStat struct {
	rssKB, hwmKB float64
	volCtx       float64 // voluntary context switches, cumulative
	heapInuseMB  float64
	numGC        float64
}

// outDir holds everything the benchmark writes: the pbxd binary, span
// files and result files. It sits inside the benchmark's own directory
// and is git-ignored.
const outDir = "benchmark/out"

// buildPbxd compiles cmd/pbxd from the checkout the benchmark runs in
// and returns the binary's path. The go build cache makes every call
// after the first a sub-second no-op.
func buildPbxd() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "pbxd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pbxd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pbxd: %w\n%s", err, out)
	}
	return bin, nil
}

// portWindow is how many consecutive UDP ports one run reserves: the
// first half for pbxd's relay legs (two per live call), the rest for
// the generator's own RTP sockets.
const portWindow = 600

// probePorts finds portWindow consecutive free UDP ports on loopback
// by binding them all, and returns the first. The windows lie below
// Linux's default ephemeral range (32768 up), which is where pbxd's and
// the generator's own ":0" sockets land. The starting candidate depends
// on the pid so that two benchmarks on one host probe different windows
// first.
func probePorts() (int, error) {
	const lo, hi, step = 10000, 32000, 1000
	first := lo + (os.Getpid()%((hi-lo)/step))*step
	for i := 0; i < (hi-lo)/step; i++ {
		base := lo + (first-lo+i*step)%(hi-lo)
		if portsFree(base, portWindow) {
			return base, nil
		}
	}
	return 0, errors.New("no free UDP port window on 127.0.0.1")
}

func portsFree(base, n int) bool {
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for p := base; p < base+n; p++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: p})
		if err != nil {
			return false
		}
		conns = append(conns, c)
	}
	return true
}

// childServer is one running pbxd process.
type childServer struct {
	cmd   *exec.Cmd
	addr  string // SIP listen address parsed from stdout
	admin string // admin HTTP address parsed from stdout
	tail  *tailBuffer
	wait  chan error
	once  sync.Once
	err   error
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	adminRE  = regexp.MustCompile(`admin HTTP on http://(\S+)`)
)

// live tracks running children so every exit path can reap them.
var live struct {
	sync.Mutex
	set map[*childServer]struct{}
}

// stopAllChildren reaps every child still running. main defers it and
// the signal handler calls it, so no exit path leaves a pbxd behind.
func stopAllChildren() {
	live.Lock()
	var cs []*childServer
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// startChild spawns pbxd on ephemeral SIP and admin ports and returns
// once both "listening" lines have been parsed from its stdout.
func startChild(bin string, users, rtpBase int) (*childServer, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-capacity", "0", "-relay",
		"-users", strconv.Itoa(users),
		"-rtp-base", strconv.Itoa(rtpBase),
		"-quiet", "-flight-dump", "")
	setDeathSignal(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &childServer{cmd: cmd, tail: &tailBuffer{}, wait: make(chan error, 1)}
	cmd.Stderr = c.tail
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pbxd: %w", err)
	}
	live.Lock()
	if live.set == nil {
		live.set = map[*childServer]struct{}{}
	}
	live.set[c] = struct{}{}
	live.Unlock()

	// One goroutine owns stdout for the child's whole life: it feeds
	// the readiness parse below, then keeps draining so pbxd never
	// blocks on a full pipe. It ends at EOF, i.e. when pbxd exits.
	lines := make(chan string, 8) // the two readiness lines plus slack; later lines go to tail only
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(c.tail, line)
			select {
			case lines <- line:
			default:
			}
		}
	}()
	go func() {
		<-drained // Wait may only run once the pipe has been read to EOF
		c.wait <- cmd.Wait()
	}()

	deadline := time.After(10 * time.Second)
	for c.addr == "" || c.admin == "" {
		select {
		case line := <-lines:
			if m := listenRE.FindStringSubmatch(line); m != nil {
				c.addr = m[1]
			}
			if m := adminRE.FindStringSubmatch(line); m != nil {
				c.admin = m[1]
			}
		case err := <-c.wait:
			c.wait <- err
			c.stop()
			return nil, fmt.Errorf("pbxd exited before it was ready: %v\n%s", err, c.tail)
		case <-deadline:
			c.stop()
			return nil, fmt.Errorf("pbxd not ready after 10s\n%s", c.tail)
		}
	}
	return c, nil
}

func (c *childServer) sipAddr() string { return c.addr }

// stop sends SIGINT (pbxd prints its final counters and returns),
// waits three seconds, then kills. It is idempotent.
func (c *childServer) stop() error {
	c.once.Do(func() {
		c.cmd.Process.Signal(os.Interrupt)
		select {
		case c.err = <-c.wait:
		case <-time.After(3 * time.Second):
			c.cmd.Process.Kill()
			c.err = fmt.Errorf("pbxd ignored SIGINT, killed: %v", <-c.wait)
		}
		live.Lock()
		delete(live.set, c)
		live.Unlock()
	})
	return c.err
}

var adminClient = &http.Client{Timeout: 5 * time.Second}

func (c *childServer) get(path string) ([]byte, error) {
	resp, err := adminClient.Get("http://" + c.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (c *childServer) scrape() (promSamples, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return telemetry.ParsePrometheus(bytes.NewReader(body))
}

func (c *childServer) usage() (cpuTimes, error) { return procCPU(c.cmd.Process.Pid) }

func (c *childServer) memory() (memStat, error) {
	m, err := procStatus(c.cmd.Process.Pid)
	if err != nil {
		return m, err
	}
	// The heap profile's debug=1 text ends with the runtime.MemStats
	// fields as "# Name = value" comment lines.
	body, err := c.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	m.heapInuseMB = heapHeader(body, "HeapInuse") / (1 << 20)
	m.numGC = heapHeader(body, "NumGC")
	return m, nil
}

// heapHeader extracts one "# Name = value" line of a debug=1 heap
// profile; 0 when absent.
func heapHeader(body []byte, name string) float64 {
	prefix := "# " + name + " = "
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, _ := strconv.ParseFloat(strings.TrimSpace(line[len(prefix):]), 64)
			return v
		}
	}
	return 0
}

// tailBuffer keeps the last few KB written to it — enough of pbxd's
// output to explain a failed start without holding a whole run's log.
const tailBytes = 16 << 10

type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
