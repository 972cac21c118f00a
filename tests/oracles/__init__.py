"""Small, obviously-correct reference implementations that the
production paths are tested against."""
