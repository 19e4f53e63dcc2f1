package workloads_test

import (
	"reflect"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/workloads"
)

// halved names the declared fields that shrink instead of doubling
// when perturbed: a deeper b+tree walk would run off its node pool, and
// a longer or wider mri-q sweep off its table.
var halved = map[string]bool{"b+tree/Trips": true, "mri-q/Trips": true, "mri-q/Stride": true}

// TestShapeFieldsRead perturbs each declared (non-zero) Shape field of
// every proxy, at a small grid. The perturbed build must differ from the
// unperturbed one in its program, grid, parameters or initial memory —
// no declared field is dead — and must still pass its own Check on the
// reference engine, so a field the kernel reads but Check does not (or
// the reverse) fails.
func TestShapeFieldsRead(t *testing.T) {
	for _, s := range pinnedSpecs() {
		base := s.Shape()
		base.Grid = 3
		fields := reflect.ValueOf(base)
		for i := range fields.NumField() {
			v := fields.Field(i).Int()
			if v == 0 {
				continue
			}
			name := s.Name + "/" + fields.Type().Field(i).Name
			sh := base
			if halved[name] {
				v /= 2
			} else {
				v *= 2
			}
			reflect.ValueOf(&sh).Elem().Field(i).SetInt(v)
			t.Run(name, func(t *testing.T) {
				if digestInstance(workloads.BuildAt(s, base, 1)) == digestInstance(workloads.BuildAt(s, sh, 1)) {
					t.Fatalf("shape %v builds the same program, grid, parameters and memory as %v", sh, base)
				}
				cfg := config.Default()
				cfg.Reference = true
				sim := gpu.MustNew(cfg)
				inst := workloads.BuildAt(s, sh, 1)
				inst.Setup(sim.Mem)
				if _, err := sim.Run(inst.Launch); err != nil {
					t.Fatalf("shape %v: run: %v", sh, err)
				}
				if err := inst.Check(sim.Mem); err != nil {
					t.Fatalf("shape %v: %v", sh, err)
				}
			})
		}
	}
}
