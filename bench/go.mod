module opdaemon/bench

go 1.24

require opdaemon v0.0.0

replace opdaemon => ../
