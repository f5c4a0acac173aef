package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gf256"
)

// hostInfo is the host block printed with every result: the numbers mean
// nothing without it.
type hostInfo struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	GF256Kernel string   `json:"gf256_kernel"`
	CPUFeatures []string `json:"cpu_features"`
	NoFile      uint64   `json:"rlimit_nofile"`
	Network     string   `json:"network"`
}

func describeHost() hostInfo {
	var lim syscall.Rlimit
	syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) //nolint:errcheck // informational; preflight checks it
	return hostInfo{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GF256Kernel: gf256.KernelName(),
		CPUFeatures: gf256.CPUFeatures(),
		NoFile:      lim.Cur,
		Network:     "traffic crossed host loopback (127.0.0.1), not a real link",
	}
}

// preflight fails fast when the process cannot hold one socket per
// member: a wire workload that runs out of descriptors mid-run would
// otherwise report transport errors as protocol failures.
func preflight(needFDs int) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("preflight: getrlimit: %w", err)
	}
	if lim.Cur < uint64(needFDs) {
		return fmt.Errorf("preflight: ulimit -n is %d, this workload needs %d (one socket per member plus joiners)", lim.Cur, needFDs)
	}
	return nil
}

// udpRcvbufErrors reads the kernel's count of datagrams dropped because
// a UDP receive buffer was full. ok is false where /proc/net/snmp is
// missing; the run is then reported with the drop count unknown (-1).
func udpRcvbufErrors() (n int64, ok bool) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}

// cpuTime returns the process's user+system CPU time so far: the key
// server and every member run in this one process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns ru_maxrss in MB (Linux reports kB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// heapAllocs returns cumulative heap bytes and objects allocated: the
// same quantities as runtime.MemStats TotalAlloc and Mallocs, read
// through runtime/metrics because ReadMemStats stops the world, which
// a thousand member goroutines would feel inside a timed interval.
func heapAllocs() (bytes, objects uint64) {
	var s [2]metrics.Sample
	copy(s[:], allocSamples)
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// resetPeakRSS starts the process's RSS high-water mark afresh, so that
// a workload run after another in one process (-all, -repeat) reports
// its own peak and not its predecessor's. Where the kernel offers no
// reset the mark simply stays, as it does for a single-workload run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// The speed probe. The sizing host is shared, and for minutes at a time
// everything on it runs a fifth to a third slower (README.md "Host
// speed"): ten runs of unchanged code then spread 15-29 % on every
// CPU-bound timing, more than any bound the contract allows. So each
// run times, beside every set-up and every interval and outside their
// clocks, a fixed piece of work that no change to the repository can
// alter (standard library only, no allocation, its input copied into
// cache first), and reports its durations multiplied by probeNominal
// over the run's median probe: in milliseconds of the sizing host at
// full speed.
const (
	probeWords   = 4096
	probeNominal = 260 * time.Microsecond
)

var (
	probeSrc   = probeInput()
	probeWork  [probeWords]uint64
	probeBytes [8 * probeWords]byte
	probeSink  [sha256.Size]byte
)

func probeInput() (src [probeWords]uint64) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = x
	}
	return src
}

// speedProbe sorts the fixed words and hashes the result: branches and
// cache on one side, straight arithmetic on the other.
func speedProbe() time.Duration {
	probeWork = probeSrc
	t0 := time.Now()
	slices.Sort(probeWork[:])
	for i, w := range probeWork {
		binary.LittleEndian.PutUint64(probeBytes[8*i:], w)
	}
	probeSink = sha256.Sum256(probeBytes[:])
	return time.Since(t0)
}
