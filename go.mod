module unet

go 1.23
