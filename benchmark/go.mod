module satwatch/benchmark

go 1.22

require satwatch v0.0.0

replace satwatch => ../
