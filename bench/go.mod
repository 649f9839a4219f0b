module stburst/bench

go 1.24

require stburst v0.0.0

replace stburst => ../
