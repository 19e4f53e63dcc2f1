package smcore

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"gpushare/internal/config"
)

// TestCheckpointDerivedStateAndLegacyFields: censuses, the
// cached next PCs, the live-block count, the load-line counts and what
// a tenant's blocks hold are derived — none may appear in a payload,
// and a restore must rebuild or reset them — and a payload written before the never-set sfu_busy
// field and the tenant cap ledger (used_regs, used_smem, live_blocks)
// were dropped must still decode and restore to the same machine.
func TestCheckpointDerivedStateAndLegacyFields(t *testing.T) {
	cfg := config.Default()
	k := benchKernelDim(192)
	params := []uint32{0, 1 << 20}
	src, ms, _ := buildSM(t, cfg, k, 64, params...)
	ms.Global.Alloc(1 << 22)
	for slot := 0; slot < src.tens[0].occ.Max; slot++ {
		mustLaunch(t, src, slot, slot)
	}
	// Tick the SM alone (no memory replies) until it is wedged on loads:
	// both censuses hold blocked warps.
	var now int64
	for ; now < 2000; now++ {
		if _, err := src.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if censusEmpty(&src.census[0]) || censusEmpty(&src.census[1]) {
		t.Fatalf("setup: SM never reached an all-blocked steady state: %+v mshr %d", src.Stats, src.mshr.Len())
	}

	raw, err := json.Marshal(src.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"census", "sfu_busy", "used_regs", "used_smem", "live_blocks"} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("checkpoint payload mentions %q: derived state leaked into it", key)
		}
	}

	// An old payload carries "sfu_busy" and, per tenant, the cap ledger
	// the footprint rule replaced; the decoder must ignore them all.
	legacy := bytes.Replace(raw, []byte(`"lsu_busy":`), []byte(`"sfu_busy":12345,"lsu_busy":`), 1)
	legacy = bytes.Replace(legacy, []byte(`{"shr":`), []byte(`{"used_regs":9216,"used_smem":4096,"live_blocks":99,"shr":`), -1)
	if n := bytes.Count(legacy, []byte(`"used_regs"`)); n != len(src.tens) || bytes.Equal(legacy, raw) {
		t.Fatalf("could not splice the legacy fields into the payload (%d tenant entries)", n)
	}
	var c Checkpoint
	if err := json.Unmarshal(legacy, &c); err != nil {
		t.Fatalf("legacy payload does not decode: %v", err)
	}

	dst, _, _ := buildSM(t, cfg, k, 64, params...)
	// Dirty the destination's derived state first: a restore must not
	// trust anything it finds there.
	for ws := range dst.warps {
		dst.warps[ws].pc = 1 << 20
	}
	for si := range dst.census {
		dst.census[si].of[classScoreboard], dst.census[si].lock = ^uint64(0), ^uint64(0)
	}
	dst.liveBlocks = 99
	for i := range dst.lineCount {
		dst.lineCount[i] = 7
	}
	if err := dst.RestoreState(now, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.lineCount, src.lineCount) || !slices.ContainsFunc(src.lineCount, func(n uint8) bool { return n != 0 }) {
		t.Errorf("restored line counts %v, source has %v (which must hold a load in flight)", dst.lineCount, src.lineCount)
	}
	for si := range dst.census {
		if !censusEmpty(&dst.census[si]) {
			t.Fatalf("scheduler %d census survived the restore: %+v", si, dst.census[si])
		}
	}
	if dst.ActiveBlocks() != src.ActiveBlocks() {
		t.Errorf("restored live-block count %d, source has %d", dst.ActiveBlocks(), src.ActiveBlocks())
	}
	if err := dst.AuditSnapshots(now); err != nil {
		t.Error(err)
	}
	if err := dst.AuditTenancy(); err != nil {
		t.Error(err)
	}
	again, err := json.Marshal(dst.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Error("restoring a legacy payload and re-checkpointing changed the machine state")
	}
}

// censusEmpty reports whether c has no class or lock bit set.
func censusEmpty(c *census) bool {
	return c.of == [numClasses]uint64{} && c.lock == 0
}
