module globaldb/bench

go 1.22

require globaldb v0.0.0

replace globaldb => ../
