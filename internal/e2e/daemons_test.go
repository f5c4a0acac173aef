// Package e2e integration-tests the keyserverd and memberd binaries:
// it builds them, starts a key server with a short rekey interval, has
// several members register over the control port, and waits for every
// member to print a derived group key.
package e2e

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/udptrans"
)

func build(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// internal/e2e -> repo root
	return filepath.Dir(filepath.Dir(wd))
}

func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test")
	}
	dir := t.TempDir()
	serverBin := build(t, dir, "./cmd/keyserverd", "keyserverd")
	memberBin := build(t, dir, "./cmd/memberd", "memberd")

	ctl := "127.0.0.1:17701"
	udpAddr, httpBase := startServer(t, serverBin, ctl, "-interval", "400ms", "-seed", "7")

	const members = 3
	var wg sync.WaitGroup
	errs := make([]error, members)
	outs := make([]string, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(memberBin,
				"-id", fmt.Sprint(i+1), "-ctl", ctl, "-server-udp", udpAddr, "-once")
			out, err := cmd.CombinedOutput()
			outs[i], errs[i] = string(out), err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("members did not finish within 30s")
	}
	for i := 0; i < members; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v\n%s", i+1, errs[i], outs[i])
		}
		if !strings.Contains(outs[i], "group key key(") {
			t.Fatalf("member %d never printed a group key:\n%s", i+1, outs[i])
		}
	}

	// The daemon's observability endpoints must reflect the rekeys that
	// just keyed those members.
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	getJSON(t, httpBase+"/metrics", &snap)
	if snap.Counters["rekeys"] < 1 {
		t.Errorf("rekeys counter = %d, want >= 1", snap.Counters["rekeys"])
	}
	if snap.Counters["enc_sent"] < 1 {
		t.Errorf("enc_sent counter = %d, want >= 1", snap.Counters["enc_sent"])
	}
	if snap.Counters["joins"] < members {
		t.Errorf("joins counter = %d, want >= %d", snap.Counters["joins"], members)
	}
	if snap.Gauges["group_size"] < 1 {
		t.Errorf("group_size gauge = %v, want >= 1", snap.Gauges["group_size"])
	}
	if snap.Gauges["rho"] != 1.2 {
		t.Errorf("rho gauge = %v, want the daemon default 1.2", snap.Gauges["rho"])
	}

	var trace struct {
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	getJSON(t, httpBase+"/trace", &trace)
	kinds := map[string]int{}
	for _, ev := range trace.Events {
		kinds[ev.Kind]++
	}
	if kinds["RekeyBuilt"] < 1 {
		t.Errorf("trace has no RekeyBuilt events: %v", kinds)
	}
	if kinds["RoundStart"] < 1 {
		t.Errorf("trace has no RoundStart events: %v", kinds)
	}
}

// startServer starts keyserverd on control address ctl with extra
// flags, stops it when the test ends, and returns the transport UDP
// address and the metrics base URL it logs at startup. It also requires
// the startup line that names the AES and SHA-256 kernels.
func startServer(t *testing.T, bin, ctl string, flags ...string) (udpAddr, httpBase string) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-ctl", ctl, "-udp", "127.0.0.1:0"}, flags...)...)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
	})

	udpRe := regexp.MustCompile(`transport on (\S+),`)
	httpRe := regexp.MustCompile(`metrics on (http://\S+)/metrics`)
	kernelRe := regexp.MustCompile(`kernels: aes (aesni|generic), sha256 (avx512|generic)$`)
	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	addrCh := make(chan string, 1)
	httpCh := make(chan string, 1)
	kernelCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if kernelRe.MatchString(sc.Text()) {
				select {
				case kernelCh <- sc.Text():
				default:
				}
			}
			if m := udpRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if m := httpRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case httpCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case httpBase = <-httpCh:
	case <-deadline:
		t.Fatal("keyserverd did not log its metrics address")
	}
	select {
	case udpAddr = <-addrCh:
	case <-deadline:
		t.Fatal("keyserverd did not log its transport address")
	}
	select {
	case <-kernelCh:
	case <-deadline:
		t.Fatal("keyserverd did not log its kernels")
	}
	return udpAddr, httpBase
}

// TestConcurrentRekeysDistributeOneAtATime sends a REKEY while the
// previous one's message is still being distributed. The daemon must
// serve it only after that distribution, which listens for NACKs for at
// least one round, has ended: two runs on one transport would read each
// other's NACKs. Every member still in the group ends on the server's
// group key.
func TestConcurrentRekeysDistributeOneAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test")
	}
	dir := t.TempDir()
	serverBin := build(t, dir, "./cmd/keyserverd", "keyserverd")
	memberBin := build(t, dir, "./cmd/memberd", "memberd")
	ctl := "127.0.0.1:17702"
	// No tick within the test: only the REKEY commands rekey.
	udpAddr, httpBase := startServer(t, serverBin, ctl, "-interval", "1h", "-seed", "8")

	// Four members register; their joins wait for a REKEY. Each member
	// prints every group key it derives; keep the last.
	const members = 4
	keyRe := regexp.MustCompile(`group key (key\(\w+\))`)
	var mu sync.Mutex
	last := make(map[int]string)
	for id := 1; id <= members; id++ {
		cmd := exec.Command(memberBin, "-id", fmt.Sprint(id), "-ctl", ctl, "-server-udp", udpAddr)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if m := keyRe.FindStringSubmatch(sc.Text()); m != nil {
					mu.Lock()
					last[id] = m[1]
					mu.Unlock()
				}
			}
		}()
	}
	status := dialCtl(t, ctl)
	status.await(t, fmt.Sprintf("pendingJoins=%d", members))

	// The first REKEY takes the joins. Once it has, member 4's leave is
	// queued and a second REKEY sent from another connection while the
	// first message is still being distributed.
	first, second := dialCtl(t, ctl), dialCtl(t, ctl)
	replies := make(chan string, 2)
	go func() { replies <- first.do("REKEY") }()
	status.await(t, "pendingJoins=0")
	if r := second.do("LEAVE 4"); r != "OK" {
		t.Fatalf("LEAVE 4: %s", r)
	}
	go func() { replies <- second.do("REKEY") }()
	for i := 0; i < 2; i++ {
		if r := <-replies; r != "OK" {
			t.Fatalf("REKEY: %s", r)
		}
	}

	var trace struct {
		Events []struct {
			Kind  string    `json:"kind"`
			MsgID int       `json:"msg_id"`
			Round int       `json:"round"`
			Time  time.Time `json:"time"`
		} `json:"events"`
	}
	getJSON(t, httpBase+"/trace", &trace)
	var sent, built time.Time
	for _, ev := range trace.Events {
		switch {
		case ev.Kind == "RoundStart" && ev.MsgID == 0 && ev.Round == 1:
			sent = ev.Time
		case ev.Kind == "RekeyBuilt" && ev.MsgID == 1:
			built = ev.Time
		}
	}
	if sent.IsZero() || built.IsZero() {
		t.Fatalf("trace lacks the first message's round one or the second message: %+v", trace.Events)
	}
	if gap, round := built.Sub(sent), udptrans.DefaultOptions().RoundDur; gap < round {
		t.Fatalf("second message built %v after the first began sending, within its %v NACK window", gap, round)
	}

	// Members 1-3 end on the server's group key.
	reply := status.do("STATUS")
	group := reply[strings.Index(reply, "group=")+len("group="):]
	deadline := time.Now().Add(10 * time.Second)
	for id := 1; id < members; id++ {
		for {
			mu.Lock()
			got := last[id]
			mu.Unlock()
			if got == group {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %d ends on %q, server on %q", id, got, group)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// ctlConn is one control-port connection.
type ctlConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialCtl(t *testing.T, addr string) *ctlConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &ctlConn{conn: conn, r: bufio.NewReader(conn)}
}

// do sends one command and returns the reply line; it may run on a
// goroutine of its own, so it reports a failure as the reply.
func (c *ctlConn) do(cmd string) string {
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "ERR " + err.Error()
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "ERR " + err.Error()
	}
	return strings.TrimSpace(line)
}

// await polls STATUS until its reply contains want.
func (c *ctlConn) await(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		reply := c.do("STATUS")
		if strings.Contains(reply, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("STATUS never showed %s: %s", want, reply)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON fetches url and decodes the response body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: json: %v\n%s", url, err, body)
	}
}
