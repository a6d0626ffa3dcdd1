module micco/bench

go 1.22

require micco v0.0.0

replace micco => ../
