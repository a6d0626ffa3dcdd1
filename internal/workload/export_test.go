package workload

import "micco/internal/tensor"

// NumberedByMap is the reference for FromStages' numbering: it lays the
// same stream out as a hand-built workload (inputs, then every output in
// stream order), numbers it through number's id→slot map, marks last uses
// with finish, and counts repeats by the map's slots. stages is copied,
// not adopted. It does not validate the stream.
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
	w.number()
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
