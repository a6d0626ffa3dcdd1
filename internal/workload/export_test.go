package workload

import "micco/internal/tensor"

// NumberedByMap is the reference for FromStages' numbering: it lays the
// stream out as inputs, then every output in stream order, numbers it
// through an id→slot map (of two positions naming one ID, the first wins),
// marks last uses with finish, and counts repeats by the map's slots.
// stages is copied, not adopted. It does not validate the stream.
func NumberedByMap(name string, stages [][]Pair, inputs []tensor.Desc) *Workload {
	w := &Workload{Name: name, Inputs: inputs}
	for si, pairs := range stages {
		st := Stage{Index: si, Pairs: append([]Pair(nil), pairs...)}
		for pi := range st.Pairs {
			st.Pairs[pi].slot, st.Pairs[pi].LastUse = [3]int32{}, [2]bool{}
			w.Outputs = append(w.Outputs, st.Pairs[pi].Out)
		}
		w.Stages = append(w.Stages, st)
	}
	w.ids = w.listed()
	slots := make(map[uint64]int32, len(w.ids))
	for s := len(w.ids) - 1; s >= 0; s-- { // backwards: of two positions, the first wins
		slots[w.ids[s]] = int32(s)
	}
	w.eachPair(func(p *Pair) {
		for i, id := range [3]uint64{p.A.ID, p.B.ID, p.Out.ID} {
			s, ok := slots[id]
			if !ok {
				s = int32(len(w.ids))
				slots[id] = s
				w.ids = append(w.ids, id)
			}
			p.slot[i] = s
		}
	})
	w.finish()
	appeared := make([]bool, len(w.ids))
	for si := range w.Stages {
		st := &w.Stages[si]
		repeats := 0
		for _, p := range st.Pairs {
			for _, s := range p.slot[:2] {
				if appeared[s] {
					repeats++
				}
				appeared[s] = true
			}
			appeared[p.slot[2]] = true
		}
		st.RepeatRate = float64(repeats) / float64(st.NumTensors())
	}
	return w
}
