package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/gem-embeddings/gem/internal/mathx"
	"github.com/gem-embeddings/gem/internal/table"
)

// goldenFingerprint is the SHA-256 over the raw float64 bits of the
// embedding matrix produced by goldenCatalog under goldenConfig. It pins
// the numerics of the whole pipeline — EM fitting (restarts, chunked
// E-step, M-step), the signature mechanism, feature standardization and
// normalization — so a refactor that silently changes any float cannot
// pass. If a change is SUPPOSED to alter numerics, update this constant
// in the same commit and say so in the commit message.
//
// Last intentional change (regenerated once): every exponential of the
// mixture code is the portable table-driven mathx.Exp in place of the
// host's math.Exp, whose amd64 assembly picked an FMA or a non-FMA path
// from the CPU flags; the mean and the deviation of the statistical
// features are summed over the column's ascending copy instead of in row
// order; and the lognormal column of goldenCatalog is generated with
// mathx.Exp. The fitted mixture, every mean-responsibility and the mean
// and cv features change in the last bits, and the fingerprint is now the
// same by default, under GODEBUG=cpu.fma=off and as GOARCH=386.
const goldenFingerprint = "be81f3c7e989de3e7d98329b78e0e35614bb99382acbde8e5c319b9dd088b740"

// goldenCatalog builds a fixed-seed synthetic catalog with distinct
// column shapes (gaussians, mixtures, uniform, lognormal, constant-ish),
// self-contained so the fingerprint depends on nothing but core and gmm.
func goldenCatalog() *table.Dataset {
	rng := rand.New(rand.NewSource(424242))
	mk := func(name string, n int, gen func() float64) table.Column {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = gen()
		}
		return table.Column{Name: name, Type: "golden", Values: vs}
	}
	return &table.Dataset{Columns: []table.Column{
		mk("gauss_narrow", 400, func() float64 { return 10 + rng.NormFloat64() }),
		mk("gauss_wide", 400, func() float64 { return -5 + 8*rng.NormFloat64() }),
		mk("bimodal", 500, func() float64 {
			if rng.Float64() < 0.5 {
				return -20 + rng.NormFloat64()
			}
			return 20 + rng.NormFloat64()
		}),
		mk("uniform", 300, func() float64 { return rng.Float64() * 100 }),
		// mathx.Exp, not math.Exp: the fixture's own input may not depend on
		// the host's exp (see TestGoldenEmbeddingFingerprint).
		mk("lognormal", 350, func() float64 { return mathx.Exp(2 + 0.7*rng.NormFloat64()) }),
		mk("small_ints", 250, func() float64 { return float64(rng.Intn(7)) }),
		mk("near_constant", 200, func() float64 { return 3 + 1e-6*rng.NormFloat64() }),
		mk("heavy_tail", 450, func() float64 { return rng.NormFloat64() / (rng.Float64() + 0.05) }),
	}}
}

// goldenConfig exercises the parallel EM engine (several restarts, a
// multi-chunk stack is not needed — determinism across widths is pinned
// elsewhere; here one fixed width pins the values themselves).
func goldenConfig() Config {
	return Config{
		Components: 12,
		Restarts:   4,
		Seed:       99,
		Workers:    4,
	}
}

// fingerprint hashes the embedding matrix bit-exactly.
func fingerprint(emb [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range emb {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenEmbeddingFingerprint embeds the golden catalog and compares
// against the checked-in fingerprint.
func TestGoldenEmbeddingFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// On other architectures (arm64, ppc64, s390x, …) the compiler
		// fuses a*b+c into one FMA instruction wherever it may, which
		// perturbs low-order bits; the fingerprint is that of the targets
		// that never fuse. On those, with or without FMA on the CPU, no
		// arithmetic of the pipeline picks its path from the CPU flags.
		t.Skipf("golden fingerprint is recorded for amd64 and 386, running on %s", runtime.GOARCH)
	}
	e, err := NewEmbedder(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	emb, err := e.FitEmbed(goldenCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(emb); got != goldenFingerprint {
		t.Fatalf("embedding fingerprint changed:\n  got  %s\n  want %s\n"+
			"If this numeric change is intentional, update goldenFingerprint.", got, goldenFingerprint)
	}
}

// TestGoldenFingerprintStableAcrossWorkers re-embeds the golden catalog
// at other worker counts and expects the identical fingerprint — the
// end-to-end form of the determinism contract.
func TestGoldenFingerprintStableAcrossWorkers(t *testing.T) {
	var ref string
	for _, w := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		cfg := goldenConfig()
		cfg.Workers = w
		e, err := NewEmbedder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := e.FitEmbed(goldenCatalog())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(emb)
		if ref == "" {
			ref = fp
			continue
		}
		if fp != ref {
			t.Fatalf("workers=%d: fingerprint %s differs from %s", w, fp, ref)
		}
	}
}
