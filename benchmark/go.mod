module vpbenchmark

go 1.22

require visualprint v0.0.0

replace visualprint => ../
