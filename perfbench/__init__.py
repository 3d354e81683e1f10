"""Seeded end-to-end benchmark of the fse library; see README.md."""
