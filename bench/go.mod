module optimus/bench

go 1.22

require optimus v0.0.0

replace optimus => ../
