module kglids/bench

go 1.22

require kglids v0.0.0

replace kglids => ../
