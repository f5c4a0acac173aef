// Command keyserverd runs a group key server over UDP on one host.
//
// It listens on a control TCP port for registration ("JOIN <id> <udp
// addr>" / "LEAVE <id>" lines) and periodically processes the queued
// batch, distributing each rekey message to the registered members via
// the UDP rekey transport. It is the wire-facing counterpart of the
// simulation harness: the same server protocol, driven by a clock
// instead of a simulated network.
//
// Usage:
//
//	keyserverd [-ctl 127.0.0.1:7700] [-udp 127.0.0.1:0] [-http 127.0.0.1:0] [-interval 2s] [-rho 1.2] [-k 10]
//
// Protocol on the control port (one command per line):
//
//	JOIN <member-id> <udp-host:port>   -> "OK <nodeID> <hexkey> <degree> <k>" after next rekey
//	LEAVE <member-id>                  -> "OK"
//	REKEY                              -> force an immediate batch
//	STATUS                             -> group size, pending counts, group key fingerprint
//
// The HTTP port serves the live observability registry: GET /metrics
// returns counters/gauges/histograms (packets sent by type, NACKs per
// round, rho, rekey build times, ...) as JSON, and GET /trace returns
// the recent typed protocol events (RoundStart, NACKReceived,
// SwitchToUnicast, ...). SIGINT/SIGTERM shut the daemon down cleanly,
// aborting any in-flight distribution.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	rekey "repro"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/udptrans"
)

type daemon struct {
	mu      sync.Mutex
	ks      *rekey.Server
	tr      *udptrans.Server
	opts    udptrans.Options
	pending map[rekey.MemberID]*net.UDPAddr // joiners awaiting the next batch
	// forced carries REKEY commands to the goroutine that owns Rekey and
	// Distribute (runRekeys), each with a channel for its result.
	forced chan chan error
}

func main() {
	var (
		ctl      = flag.String("ctl", "127.0.0.1:7700", "control (TCP) listen address")
		udp      = flag.String("udp", "127.0.0.1:0", "rekey transport (UDP) listen address")
		httpAddr = flag.String("http", "127.0.0.1:0", "metrics/trace (HTTP) listen address ('' disables)")
		interval = flag.Duration("interval", 2*time.Second, "rekey interval")
		rho      = flag.Float64("rho", 1.2, "proactivity factor rho0")
		k        = flag.Int("k", 10, "FEC block size")
		seed     = flag.Uint64("seed", 0, "deterministic key seed (0 = crypto/rand)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	reg := obs.New()
	tun := rekey.DefaultTuning()
	tun.K = *k
	tun.InitialRho = *rho
	ks, err := rekey.NewServer(rekey.WithTuning(tun), rekey.WithKeySeed(*seed), rekey.WithObs(reg))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := udptrans.NewServer(ks, *udp)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	d := &daemon{ks: ks, tr: tr, opts: udptrans.DefaultOptions(),
		pending: make(map[rekey.MemberID]*net.UDPAddr), forced: make(chan chan error)}

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		hsrv := &http.Server{Handler: reg.ServeMux()}
		go hsrv.Serve(hln) //nolint:errcheck
		go func() {
			<-ctx.Done()
			hsrv.Close()
		}()
		log.Printf("keyserverd: metrics on http://%s/metrics (trace on /trace)", hln.Addr())
	}

	ln, err := net.Listen("tcp", *ctl)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("keyserverd: kernels: aes %s, sha256 %s, rsa-verify %s", keys.AESKernel(), keys.SHA256Kernel(), keys.RootVerifyKernel())
	log.Printf("keyserverd: control on %s, transport on %s, interval %v", ln.Addr(), tr.Addr(), *interval)

	go d.runRekeys(ctx, *interval)

	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("keyserverd: shutting down")
				return
			}
			log.Fatal(err)
		}
		go d.serveCtl(ctx, conn)
	}
}

// runRekeys is the one goroutine that rekeys and distributes: at every
// tick, and for every REKEY command, which waits for its result. Two
// distributions on one transport would read each other's NACKs, so they
// never overlap.
func (d *daemon) runRekeys(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		var result chan error
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		case result = <-d.forced:
		}
		err := d.rekey(ctx)
		switch {
		case result != nil:
			result <- err
		case err != nil && !errors.Is(err, rekey.ErrNoChange) && !errors.Is(err, context.Canceled):
			log.Printf("rekey: %v", err)
		}
	}
}

func (d *daemon) rekey(ctx context.Context) error {
	d.mu.Lock()
	rm, err := d.ks.Rekey()
	if err != nil {
		d.mu.Unlock()
		return err
	}
	// Joiners become addressable members now.
	for id, addr := range d.pending {
		d.tr.SetMemberAddr(id, addr)
		delete(d.pending, id)
	}
	d.mu.Unlock()
	st, err := d.tr.Distribute(ctx, rm, d.opts)
	if err != nil {
		return err
	}
	log.Printf("rekey msg %d: %d ENC, %d PARITY, %d USR, %d rounds, group size %d",
		rm.MsgID, st.EncSent, st.ParitySent, st.UsrSent, st.Rounds, d.ks.N())
	return nil
}

func (d *daemon) serveCtl(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		reply := d.handle(ctx, fields)
		fmt.Fprintln(conn, reply)
	}
}

// handle executes one control-channel command and returns the reply
// line.
//
//rekeylint:declassify the REGISTER reply delivers the member its own individual key over the control channel by design
func (d *daemon) handle(ctx context.Context, fields []string) string {
	switch strings.ToUpper(fields[0]) {
	case "JOIN":
		if len(fields) != 3 {
			return "ERR usage: JOIN <id> <udp-addr>"
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "ERR bad member id"
		}
		addr, err := net.ResolveUDPAddr("udp", fields[2])
		if err != nil {
			return "ERR bad udp addr"
		}
		d.mu.Lock()
		err = d.ks.QueueJoin(rekey.MemberID(id))
		if err == nil {
			d.pending[rekey.MemberID(id)] = addr
		}
		d.mu.Unlock()
		if err != nil {
			return "ERR " + err.Error()
		}
		// Registration completes at the next batch; blocks until then.
		for i := 0; i < 100 && ctx.Err() == nil; i++ {
			if cred, ok := d.ks.Credentials(rekey.MemberID(id)); ok {
				return fmt.Sprintf("OK %d %s %d %d", cred.NodeID, hex.EncodeToString(cred.Key[:]), cred.Degree, cred.BlockSize)
			}
			time.Sleep(100 * time.Millisecond)
		}
		return "ERR registration timed out"
	case "LEAVE":
		if len(fields) != 2 {
			return "ERR usage: LEAVE <id>"
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return "ERR bad member id"
		}
		d.mu.Lock()
		err = d.ks.QueueLeave(rekey.MemberID(id))
		if err == nil {
			d.tr.RemoveMemberAddr(rekey.MemberID(id))
		}
		d.mu.Unlock()
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "REKEY":
		result := make(chan error, 1)
		select {
		case d.forced <- result:
		case <-ctx.Done():
			return "ERR " + ctx.Err().Error()
		}
		if err := <-result; err != nil && !errors.Is(err, rekey.ErrNoChange) {
			return "ERR " + err.Error()
		}
		return "OK"
	case "STATUS":
		j, l := d.ks.Pending()
		return fmt.Sprintf("OK n=%d pendingJoins=%d pendingLeaves=%d group=%s", d.ks.N(), j, l, d.ks.GroupKey())
	default:
		return "ERR unknown command"
	}
}
