//go:build !race

// The transport figures take ~80 s more under the race detector than
// without it (2 cores), so this file builds only without it.

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestTransportFiguresGolden pins, under Quick, the printed figures of
// every experiment that runs the transport: each drives real members
// through vsim, so a change to the send order, the round builder, the
// NACK handling, the rho adaptation or the unicast switch that moves a
// single count changes a digest. a-server-capacity prints measured
// costs and is left out. The experiments run as parallel subtests at
// their quick sizes; no sweep is shrunk for the test.
func TestTransportFiguresGolden(t *testing.T) {
	checkFigureDigests(t, map[string]string{
		"abl-interleave":           "41d99fc87379c3fd2a98ef364cabb7de6ec0b4b1bbfb3e94423133c83c3fcbb3",
		"f8-bw-vs-k":               "154092215ab200d1ce21c78439ffa740f129f9e4fc4ff54d2c5934a79c6ddeb2",
		"f8-enctime-vs-k":          "771390c811b5c4f63142ebc8c890a6f74c0aa9e6ef7cd99618b0ffb891bb8e31",
		"f9-nacks-vs-rho":          "fff7f27b68f369318ae461b2c6296aa1c3c387df902f7d91db2e36c142fec848",
		"f9-rounds-vs-rho":         "4465d6b41d2d1aa32a87ff116812d9bd1373d9be9a4568440431a36224210da1",
		"f10-bw-vs-rho":            "927c95f10af291b9d2ea1f5439e32d4ebeca04c862f0152ddc3045e921ab1830",
		"f10-user-rounds":          "e6d1f723752100d204f7f760d1577194907e6077f3a8ddc36d6f4301462299d2",
		"f12-rho-trace":            "bddd81efad743b153d56b9a09c6198924673523087fbe3db2419ac23f154840a",
		"f13-nack-trace":           "910eab759f830f2bc8e4399e7dd8fc01d489987ad187be42ba6dd29f57b589b2",
		"f14-nack-target-sweep":    "ed89bfb0cb5a2abec11545a2cd0af9bcd2cfc8c79ea9c73f23b27772be9025a0",
		"f15-nack-vs-k":            "91bb40456468e42947c197bc46d39dbc951f879ceb58b6ff4fc14881808e983f",
		"f16-bw-vs-k-alpha":        "51262b01ebf333e29080ad089751f0ac27b2a0170d84e8ced8375b7dab0f9487",
		"f16-bw-vs-k-n":            "44a11d78e2e5be771d20c5992a52c63e54571c8dce2888eaeaa92215afe9df2b",
		"f17-server-rounds":        "321af861d85fc3de926e8d92ba9569395a3ff8ef55859f42e6a4aab410ba56ff",
		"f17-user-rounds":          "049b7e9919482a3c42c62771bd2c0a371ae6c27725f8275ef7ad15e8fcb61468",
		"f18-bw-vs-numnack":        "08595600b0818411dbd6a836e7056042d4dc11f2e1578e960d810304fc86e90d",
		"f18-latency-vs-numnack":   "356d0d81de3700139b0db4b7408cf884b613e4d37550fa2530da5f59abcf4fcf",
		"f19-adaptive-extra-alpha": "baec192a339faa5f178aaa358f77a32cb366632718fd3bee67511f327795822e",
		"f20-adaptive-extra-n":     "51ec0e9517b5fc7237aa9f0b2575c0b1f0d0a8535b92556af964a0b068182a0e",
		"f21-deadline-trace":       "d83e07b77caa68e189fd63f4b1a003d328829e0aa8d69b1b8b93e44203fdbabc",
	})
}

// TestScenarioTableGolden pins the quick scenario table, the one
// rekeybench -scenario writes into EXPERIMENTS.md: every cell's counts
// and verdict, by SHA-256 of ScenarioMarkdown.
func TestScenarioTableGolden(t *testing.T) {
	const want = "4186d2a7546cff1a3798d5257aded6c8a4db874f93d3bb00ac361f44fbd34b49"
	sum := sha256.Sum256([]byte(ScenarioMarkdown(RunScenarioSuite(Options{Quick: true}))))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("scenario table digest %s, want %s", got, want)
	}
}
