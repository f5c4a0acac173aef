// Command memberd runs one group member against a keyserverd instance:
// it registers over the control port, then receives rekey packets over
// UDP, printing a fingerprint of each new group key it derives.
//
// Usage:
//
//	memberd -id 42 -server-udp 127.0.0.1:PORT [-ctl 127.0.0.1:7700] [-http 127.0.0.1:0] [-once]
//
// keyserverd logs its transport UDP address at startup; pass it as
// -server-udp so the member's NACKs reach the right socket. The HTTP
// port serves the member-side observability registry (/metrics and
// /trace): packets received by type, NACKs sent, FEC recoveries, and
// MemberDone trace events. SIGINT/SIGTERM stop the receive loop.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	rekey "repro"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/udptrans"
)

func main() {
	var (
		id       = flag.Int64("id", 0, "member ID (required)")
		ctl      = flag.String("ctl", "127.0.0.1:7700", "key server control (TCP) address")
		srvUDPs  = flag.String("server-udp", "", "key server transport (UDP) address (required)")
		httpAddr = flag.String("http", "", "metrics/trace (HTTP) listen address ('' disables)")
		once     = flag.Bool("once", false, "exit after deriving the first group key")
	)
	flag.Parse()
	if *id <= 0 {
		log.Fatal("memberd: -id is required and must be positive")
	}
	if *srvUDPs == "" {
		log.Fatal("memberd: -server-udp is required (keyserverd logs it at startup)")
	}
	srvUDP, err := net.ResolveUDPAddr("udp", *srvUDPs)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("memberd %d: kernels: aes %s, sha256 %s, rsa-verify %s", *id, keys.AESKernel(), keys.SHA256Kernel(), keys.RootVerifyKernel())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Bind the member's UDP socket BEFORE registering: packets the
	// server distributes while the JOIN reply is in flight queue in the
	// socket buffer and are drained once the client runs.
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	myAddr := sock.LocalAddr().String()

	conn, err := net.Dial("tcp", *ctl)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "JOIN %d %s\n", *id, myAddr)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "OK" {
		log.Fatalf("memberd: registration failed: %s", strings.TrimSpace(line))
	}
	nodeID, _ := strconv.Atoi(fields[1])
	keyHex, _ := hex.DecodeString(fields[2])
	degree, _ := strconv.Atoi(fields[3])
	blockSize, _ := strconv.Atoi(fields[4])
	var ik keys.Key
	copy(ik[:], keyHex)

	cred := rekey.Credentials{
		Member: rekey.MemberID(*id), NodeID: nodeID, Key: ik,
		Degree: degree, BlockSize: blockSize,
	}
	client, err := udptrans.NewClientOnConn(cred, srvUDP, sock)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.New()
	client.Obs = reg
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
		log.Printf("memberd %d: metrics on http://%s/metrics", *id, hln.Addr())
	}
	log.Printf("memberd %d: node %d, listening on %s", *id, nodeID, myAddr)
	go client.Run(ctx) //nolint:errcheck
	defer client.Close()

	var last keys.Key
	var have bool
	for ctx.Err() == nil {
		gk, ok := client.Member.GroupKey()
		if ok && (!have || !gk.Equal(last)) {
			last, have = gk, true
			fmt.Printf("member %d: group key %s\n", *id, gk.String())
			if *once {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("memberd %d: shutting down", *id)
}
