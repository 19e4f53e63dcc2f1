package smcore

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpushare/internal/config"
)

// TestCheckpointDerivedStateAndLegacyFields: issue cards, censuses, the
// cached next PCs and the live-block count are derived — none may
// appear in a payload, and a restore must rebuild or reset them — and a
// payload written before the never-set sfu_busy field was dropped must
// still decode and restore to the same machine.
func TestCheckpointDerivedStateAndLegacyFields(t *testing.T) {
	cfg := config.Default()
	k := benchKernelDim(192)
	params := []uint32{0, 1 << 20}
	src, ms, _ := buildSM(t, cfg, k, 64, params...)
	ms.Global.Alloc(1 << 22)
	for slot := 0; slot < src.Occupancy().Max; slot++ {
		mustLaunch(t, src, slot, slot)
	}
	// Tick the SM alone (no memory replies) until it is wedged on loads:
	// every warp holds a card and both censuses are valid.
	var now int64
	for ; now < 2000; now++ {
		if _, err := src.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if !src.census[0].valid || !src.census[1].valid {
		t.Fatalf("setup: SM never reached an all-blocked steady state: %+v mshr %d", src.Stats, src.mshr.Len())
	}

	raw, err := json.Marshal(src.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"card", "census", "sfu_busy"} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("checkpoint payload mentions %q: derived state leaked into it", key)
		}
	}

	// An old payload carries "sfu_busy"; the decoder must ignore it.
	legacy := bytes.Replace(raw, []byte(`"lsu_busy":`), []byte(`"sfu_busy":12345,"lsu_busy":`), 1)
	if bytes.Equal(legacy, raw) {
		t.Fatal("could not splice the legacy field into the payload")
	}
	var c Checkpoint
	if err := json.Unmarshal(legacy, &c); err != nil {
		t.Fatalf("legacy payload does not decode: %v", err)
	}

	dst, _, _ := buildSM(t, cfg, k, 64, params...)
	// Dirty the destination's derived state first: a restore must not
	// trust anything it finds there.
	for ws := range dst.cards {
		dst.cards[ws] = issueCard{class: classScoreboard}
		dst.warps[ws].pc = 1 << 20
	}
	for si := range dst.census {
		dst.census[si].valid = true
	}
	dst.liveBlocks = 99
	if err := dst.RestoreState(now, c); err != nil {
		t.Fatal(err)
	}
	for ws, card := range dst.cards {
		if card.class != classNone {
			t.Fatalf("warp %d still holds a card after restore", ws)
		}
	}
	for si := range dst.census {
		if dst.census[si].valid {
			t.Fatalf("scheduler %d census survived the restore", si)
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
