package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/fec"
	"repro/internal/keys"
	"repro/internal/packet"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "a-server-capacity",
		Paper: "companion analysis (SIGCOMM 2001)",
		Desc:  "max sustainable group size vs rekey interval, from measured sign/wrap/FEC costs",
		Run:   runCapacity,
	})
}

// MeasureCosts times the key server's unit operations on this machine:
// one RSA-1024 signature per message, one re-keyed wrap per encryption,
// and Reed-Solomon parity generation (normalised per parity packet per
// unit of block size).
func MeasureCosts() (analysis.Costs, error) {
	var c analysis.Costs
	c.PacketLen = packet.PacketLen

	signer, err := keys.NewSigner(1024)
	if err != nil {
		return c, err
	}
	msg := make([]byte, packet.PacketLen)
	const signReps = 20
	start := time.Now()
	for i := 0; i < signReps; i++ {
		if _, err := signer.Sign(msg); err != nil {
			return c, err
		}
	}
	c.Sign = time.Since(start).Seconds() / signReps

	// The server's wrap as the batch pipeline runs it: every tree edge
	// has its own child (outer) key, and one batch takes the edges 16 to
	// a flush.
	const wrapReps = 20000
	outers, err := keys.NewDeterministicGenerator(1).NewKeys(wrapReps + 1)
	if err != nil {
		return c, err
	}
	wrapped := make([][keys.WrappedSize]byte, wrapReps)
	var batch keys.WrapBatch
	start = time.Now()
	for i := range wrapped {
		batch.Add(&wrapped[i], &outers[i], &outers[i+1])
	}
	batch.Flush()
	c.Wrap = time.Since(start).Seconds() / wrapReps

	const k = 10
	coder, err := fec.NewCoder(k, k)
	if err != nil {
		return c, err
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, packet.ParityPayloadLen)
		for j := range data[i] {
			data[i][j] = byte(i + j)
		}
	}
	// Measure through the one-pass encoder the server actually uses
	// (EncodeAll over a k-parity window), then normalise to the
	// analysis model's unit: one parity packet per unit of block size.
	const fecReps = 200
	start = time.Now()
	for i := 0; i < fecReps; i++ {
		if _, err := coder.EncodeAll(data, 0, k); err != nil {
			return c, err
		}
	}
	perParity := time.Since(start).Seconds() / (fecReps * k)
	c.ParityPerBlockByte = perParity / k
	return c, nil
}

func runCapacity(o Options) ([]*stats.Figure, error) {
	costs, err := MeasureCosts()
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{
		ID: "A-CAP",
		Title: fmt.Sprintf("max group size vs rekey interval (d=4, L=N/4, k=10, rho=1.5; measured: sign=%.2gs wrap=%.2gs parity/k=%.2gs)",
			costs.Sign, costs.Wrap, costs.ParityPerBlockByte),
		XLabel: "rekey interval (s)",
		YLabel: "max group size N",
	}
	s := fig.NewSeries("key server capacity")
	intervals := []float64{0.1, 1, 10, 60, 300}
	if o.Quick {
		intervals = []float64{1, 60}
	}
	for _, iv := range intervals {
		n, err := analysis.MaxGroupSize(costs, 4, 0.25, 10, 1.5, iv)
		if err != nil {
			return nil, err
		}
		s.Add(iv, float64(n))
	}
	return []*stats.Figure{fig}, nil
}
