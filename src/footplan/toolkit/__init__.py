"""Command line front end, scenario generators, and reporting helpers."""
