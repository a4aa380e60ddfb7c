module bestsync/benchmark

go 1.24

require bestsync v0.0.0

replace bestsync => ../
