module ehna/bench

go 1.21

require ehna v0.0.0

replace ehna => ../
