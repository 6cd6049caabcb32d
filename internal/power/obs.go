package power

import "tdmnoc/internal/obs"

// SampleEnergy emits one KindEnergySample per component for a router's
// meter: A = the Component index, Val = cumulative dynamic + static
// energy in milli-picojoules since the meter was last reset. The fixed
// milli-pJ scale keeps the event integer-valued (and therefore exactly
// reproducible) while preserving sub-picojoule resolution. Called by the
// network's periodic telemetry pass; p must be non-nil.
func SampleEnergy(p *obs.Handle, now int64, node int, m *RouterMeter) {
	if !p.Wants(obs.KindEnergySample) {
		return
	}
	b := m.Report()
	for c := Component(0); c < NumComponents; c++ {
		pj := b.DynamicPJ[c] + b.StaticPJ[c]
		p.Emit(obs.Event{Cycle: now, Kind: obs.KindEnergySample,
			Node: int32(node), A: uint8(c), Val: int64(pj * 1000)})
	}
}
