"""Flow benchmark of the paper's design flow: CSC resolution, synthesis
with verification, and portfolio verdicts.  See ``README.md``."""
