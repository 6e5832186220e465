module pinpoint/cmd/bench

go 1.24

require pinpoint v0.0.0

replace pinpoint => ../..
