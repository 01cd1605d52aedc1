module dirigent/benchmark

go 1.24

require dirigent v0.0.0

replace dirigent => ../
