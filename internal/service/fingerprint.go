package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"intervalsim/internal/overlay"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// Content-addressed identity. A simulation's answer is fully determined by
// the resolved workload, the instruction budget and warmup, and the machine
// configuration; the canonical key below is the durable store's name for
// that answer and the basis of idempotent job IDs (same identity → same job,
// no matter how many times or from how many clients it is submitted).
//
// Keys are canonical JSON of *resolved* inputs — after defaults have been
// applied — so two requests that mean the same run ("insts omitted" and
// "insts: 1000000") collapse to one identity. The speculation fingerprint
// (overlay.SpecFingerprint) is embedded alongside the full config so the key
// survives config-field renames that keep speculation behavior identical
// in spirit with an explicit, versioned component.

// keyVersion bumps when the key layout (or anything upstream that changes
// result bytes for the same inputs) changes incompatibly: old store entries
// then simply miss instead of serving stale shapes.
const keyVersion = 1

// simKeyDoc is the canonical identity of one cycle-level simulation.
type simKeyDoc struct {
	V        int             `json:"v"`
	Kind     string          `json:"kind"`
	Workload workload.Config `json:"workload"`
	Insts    int             `json:"insts"`
	Warmup   uint64          `json:"warmup"`
	Config   uarch.Config    `json:"config"`
	SpecFP   uint64          `json:"spec_fp"`
}

// simKey builds the canonical store key for one resolved simulate request.
func simKey(in simInputs) []byte {
	raw, err := json.Marshal(simKeyDoc{
		V:        keyVersion,
		Kind:     "simulate",
		Workload: in.wc,
		Insts:    in.spec.Insts,
		Warmup:   in.spec.Warmup,
		Config:   in.cfg,
		// SpecFingerprintV with a nil vpred config returns the legacy
		// SpecFingerprint value, so default-machine keys keep their exact
		// historical bytes (TestSimKeyBytesStable).
		SpecFP: overlay.SpecFingerprintV(in.cfg.Pred, in.cfg.Mem, in.cfg.VPred),
	})
	if err != nil {
		// Marshaling fixed structs of scalars cannot fail; if it ever does,
		// failing loud beats silently aliasing identities.
		panic(fmt.Sprintf("service: canonical key marshal: %v", err))
	}
	return raw
}

// sweepKeyDoc is the canonical identity of one durable sweep job: the
// resolved grid over one workload. Tenant and priority are deliberately
// excluded — they affect scheduling, not the answer — so identical sweeps
// from different tenants deduplicate onto one job.
type sweepKeyDoc struct {
	V        int             `json:"v"`
	Kind     string          `json:"kind"`
	Workload workload.Config `json:"workload"`
	Insts    int             `json:"insts"`
	Warmup   uint64          `json:"warmup"`
	Widths   []int           `json:"widths"`
	Depths   []int           `json:"depths"`
	ROBs     []int           `json:"robs"`
	Mode     string          `json:"mode"`
	// Sampling phase lengths, set only in sampled mode. omitempty keeps the
	// key bytes of every pre-existing sim/model identity unchanged, so no
	// keyVersion bump: stored results stay addressable.
	SampleDetailed uint64 `json:"sample_detailed,omitempty"`
	SampleSkip     uint64 `json:"sample_skip,omitempty"`
	// Predictor preset name, empty for the baseline tournament. omitempty
	// for the same reason: a default-predictor sweep keeps its historical
	// key bytes, and SpecFP below already pins the resolved predictor.
	Pred string `json:"pred,omitempty"`
	// Value-speculation axes, zero for the classic machine. omitempty again:
	// a sweep that does not value-predict or throttle fetch keeps its
	// historical key bytes (and SpecFP pins the resolved value predictor).
	VPred     string  `json:"vpred,omitempty"`
	FetchRate float64 `json:"fetchrate,omitempty"`
	SpecFP    uint64  `json:"spec_fp"`
}

// sweepKey builds the canonical identity bytes for a resolved sweep.
func sweepKey(in sweepInputs) []byte {
	raw, err := json.Marshal(sweepKeyDoc{
		V:              keyVersion,
		Kind:           "sweep",
		Workload:       in.wc,
		Insts:          in.spec.Insts,
		Warmup:         in.spec.Warmup,
		Widths:         in.widths,
		Depths:         in.depths,
		ROBs:           in.robs,
		Mode:           in.spec.Mode,
		SampleDetailed: in.spec.SampleDetailed,
		SampleSkip:     in.spec.SampleSkip,
		Pred:           in.spec.Pred,
		VPred:          in.spec.VPred,
		FetchRate:      in.spec.FetchRate,
		SpecFP:         overlay.SpecFingerprintV(in.cfg.Pred, in.cfg.Mem, in.cfg.VPred),
	})
	if err != nil {
		panic(fmt.Sprintf("service: canonical key marshal: %v", err))
	}
	return raw
}

// jobID derives the idempotent job ID for a canonical key: prefix + 128 bits
// of SHA-256 over the key bytes. 128 bits makes accidental ID collisions a
// non-concern; the store itself always verifies full key bytes, so even an
// adversarial collision could only alias job *views*, never results.
func jobID(prefix string, key []byte) string {
	sum := sha256.Sum256(key)
	return prefix + hex.EncodeToString(sum[:16])
}

// csvKey names the finished CSV artifact of sweep job id in the result
// store. Keyed by job ID (itself content-derived), so a re-submitted
// identical sweep finds its artifact across daemon restarts.
func csvKey(id string) []byte { return []byte("sweep-csv:" + id) }
